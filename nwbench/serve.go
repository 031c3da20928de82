package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Serve-zipf traffic. The rate is about half of the highest rate the
// parent commit of this benchmark sustained without a growing backlog
// on a 2-core Intel Xeon host (go1.24.0); see README.md.
const (
	serveRate      = 250.0 // requests per second, Poisson arrivals
	servePool      = 3000  // distinct keys
	serveZipfS     = 1.1   // Zipf exponent over the key pool
	serveCacheSize = 256   // planserve -cache-size, well below the pool
	serveConns     = 2     // keep-alive connections of the load generator
	serveCompare   = 0.10  // share of requests sent to /v1/compare
)

// serveReq is one scheduled request.
type serveReq struct {
	due     time.Duration // offset from the schedule start
	key     int           // pool index
	compare bool          // /v1/compare instead of /v1/plan
}

// serveBodies generates the key pool: distinct /v1/plan request bodies
// over both machines, 512-4096 ranks and 1-4 sibling nests.
func serveBodies(seed uint64) [][]byte {
	r := newRNG(seed, 2)
	seen := map[string]bool{}
	var out [][]byte
	for len(out) < servePool {
		nx, ny := r.between(240, 360), r.between(240, 360)
		qw, qh := nx/2, ny/2
		var kids []map[string]any
		for k, n := 0, r.between(1, 4); k < n; k++ {
			fx, fy := r.between(24, qw-4), r.between(24, qh-4)
			kids = append(kids, map[string]any{
				"name": fmt.Sprintf("s%d", k+1), "nx": 3 * fx, "ny": 3 * fy, "ratio": 3,
				"off_x": (k%2)*qw + r.intn(qw-fx), "off_y": (k/2)*qh + r.intn(qh-fy),
			})
		}
		body, _ := json.Marshal(map[string]any{ // plain maps always marshal
			"machine": []string{"bgl", "bgp"}[r.intn(2)],
			"ranks":   serveRanks[r.intn(len(serveRanks))],
			"domain":  map[string]any{"name": "parent", "nx": nx, "ny": ny, "children": kids},
		})
		if !seen[string(body)] {
			seen[string(body)] = true
			out = append(out, body)
		}
	}
	return out
}

// serveSchedule generates the seeded open-loop request stream: Poisson
// arrivals at serveRate over the window, Zipf-distributed keys, and a
// serveCompare share of compare requests.
func serveSchedule(seed uint64, window time.Duration) []serveReq {
	r := newRNG(seed, 3)
	cdf := make([]float64, servePool)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -serveZipfS)
		cdf[i] = sum
	}
	var out []serveReq
	var t float64
	for {
		t += -math.Log(1-r.float()) / serveRate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		u := r.float() * sum
		key := sort.SearchFloat64s(cdf, u)
		if key >= servePool {
			key = servePool - 1
		}
		out = append(out, serveReq{due: due, key: key, compare: r.float() < serveCompare})
	}
}

// server is a running cmd/planserve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives the process's exit
}

// startServer launches planserve on an ephemeral port and waits until
// /healthz answers.
func startServer(e *env, client *http.Client, extra ...string) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-cache-size", strconv.Itoa(serveCacheSize),
		"-workers", strconv.Itoa(runtime.GOMAXPROCS(0))}, extra...)
	cmd := exec.Command(filepath.Join(e.bin, "planserve"), args...)
	cmd.Dir = e.root
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	var logMu sync.Mutex
	var log bytes.Buffer
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
			}
			logMu.Lock()
			log.WriteString(line + "\n")
			logMu.Unlock()
		}
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case err := <-s.done:
		logMu.Lock()
		defer logMu.Unlock()
		return nil, fmt.Errorf("planserve exited before serving: %v: %s", err, log.Bytes())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("planserve did not report its address")
	}
	for i := 0; ; i++ {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i > 2000 {
			s.stop()
			return nil, fmt.Errorf("planserve /healthz never answered: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// does not exit in time.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("planserve did not drain within 20s")
	}
}

// serveRanks are the pool's rank counts, 512-4096.
var serveRanks = churnRanks[:7]

// serveWarmup is a request outside the key pool (a fixed geometry no
// pool key has, since pool parents are at least 240 points wide and
// this one is 200): set-up sends it for both machines at every rank
// count of the pool, so the server has trained its predictors and
// built its per-torus state before timing starts.
func serveWarmup(machine string, ranks int) []byte {
	return []byte(`{"machine":"` + machine + `","ranks":` + strconv.Itoa(ranks) + `,` +
		`"domain":{"name":"parent","nx":200,"ny":200,` +
		`"children":[{"name":"t1","nx":240,"ny":240,"ratio":3,"off_x":5,"off_y":5},` +
		`{"name":"t2","nx":240,"ny":240,"ratio":3,"off_x":100,"off_y":100}]}}`)
}

// post sends one request and drains the response.
func post(client *http.Client, url string, body []byte) (code int, cache string, resp []byte, err error) {
	r, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Plan-Cache"), resp, err
}

func newServeClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		},
	}
}

// serveSetup generates the inputs, starts a server and warms it up.
func serveSetup(e *env, client *http.Client, extra ...string) ([][]byte, []serveReq, *server, error) {
	bodies := serveBodies(e.seed)
	sched := serveSchedule(e.seed, e.seconds)
	s, err := startServer(e, client, extra...)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, m := range []string{"bgl", "bgp"} {
		for _, ranks := range serveRanks {
			code, _, body, err := post(client, s.base+"/v1/plan", serveWarmup(m, ranks))
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("warm-up status %d: %s", code, body)
			}
			if err != nil {
				s.stop()
				return nil, nil, nil, err
			}
		}
	}
	return bodies, sched, s, nil
}

// serveResult is one answered request.
type serveResult struct {
	lat, late float64 // seconds from due time to response, and to send
	ok        bool
	hit       bool
	sum       [32]byte
}

// drive replays the schedule open-loop: a dispatcher releases each
// request at its due time to serveConns senders, and every latency is
// taken from the due time, so a stall also charges the requests queued
// behind it.
func drive(client *http.Client, base string, bodies [][]byte, sched []serveReq) ([]serveResult, float64) {
	res := make([]serveResult, len(sched))
	queue := make(chan int, len(sched)) // never blocks the dispatcher
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				q := sched[i]
				url := base + "/v1/plan"
				if q.compare {
					url = base + "/v1/compare"
				}
				sent := time.Since(start)
				code, cache, body, err := post(client, url, bodies[q.key])
				r := &res[i]
				r.lat = (time.Since(start) - q.due).Seconds()
				r.late = (sent - q.due).Seconds()
				r.ok = err == nil && code == http.StatusOK
				r.hit = cache == "hit"
				r.sum = sha256.Sum256(body)
			}
		}()
	}
	for i, q := range sched {
		if d := q.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res, since(start)
}

// checkServeBodies is the serve-zipf output check: every answer for a
// key is byte-identical to that key's first (miss) answer, and the run
// saw at least one hit and one miss.
func checkServeBodies(sched []serveReq, res []serveResult) error {
	type slot struct {
		key     int
		compare bool
	}
	first := map[slot][32]byte{}
	var hits, misses int
	for i, r := range res {
		if !r.ok {
			continue
		}
		if r.hit {
			hits++
		} else {
			misses++
		}
		k := slot{sched[i].key, sched[i].compare}
		if want, ok := first[k]; !ok {
			first[k] = r.sum
		} else if r.sum != want {
			return fmt.Errorf("request %d (key %d, compare %v, hit %v): body differs from the key's first answer",
				i, k.key, k.compare, r.hit)
		}
	}
	if hits == 0 || misses == 0 {
		return fmt.Errorf("saw %d hits and %d misses; the check needs both", hits, misses)
	}
	return nil
}

// getJSON fetches and decodes a JSON endpoint.
func getJSON(client *http.Client, url string, v any) error {
	r, err := client.Get(url)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, r.StatusCode)
	}
	return json.NewDecoder(r.Body).Decode(v)
}

func runServe(e *env) (*outcome, error) {
	o := &outcome{}
	client := newServeClient()
	defer client.CloseIdleConnections()
	var (
		bodies [][]byte
		sched  []serveReq
		s      *server
	)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if bodies, sched, s, err = serveSetup(e, client); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, since(t))
	}
	res, wall := drive(client, s.base, bodies, sched)
	rss, rssErr := peakRSSMB(s.cmd.Process.Pid)
	if err := s.stop(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	o.rssMB, o.wall = rss, wall
	var hits int
	for _, r := range res {
		o.attempted++
		if !r.ok {
			o.failed++
			continue
		}
		o.lat = append(o.lat, r.lat)
		if r.hit {
			hits++
		}
	}
	o.checkErr = checkServeBodies(sched, res)
	o.extra = []namedValue{
		{"offered_rate", serveRate, "1/s"},
		{"client_hit_ratio", float64(hits) / float64(len(o.lat)), "ratio"},
	}
	return o, nil
}
