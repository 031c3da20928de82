package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workloadState records which process-global caches each workload
// starts with, so cold and warm figures are never mixed up.
var workloadState = map[string]string{
	"plan-churn":      "cold phase memo, predictor trained in set-up, fresh process",
	"serve-zipf":      "fresh server, cold plan cache, predictors trained by set-up warm-up requests",
	"functional-2048": "warm: set-up runs full 2048-rank warm-up runs first",
	"paper-eval":      "cold: every sample is a fresh process (training, route cache and phase memo empty)",
}

// printHost writes the run's host and source metadata as one JSON
// comment line of the report.
func printHost(e *env, w *workload, traced bool) {
	meta := map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commitID(e.root),
		"seed":       e.seed,
		"workload":   w.name,
		"state":      workloadState[w.name],
		"traced":     traced,
		"seconds":    e.seconds.Seconds(),
	}
	b, _ := json.Marshal(meta) // a map of plain values always marshals
	fmt.Fprintf(e.out, "# host %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the source under test: the git commit when the
// checkout is a repository (read from .git, without running git, so
// nothing outside the checkout is read), otherwise a hash of the Go
// sources outside the benchmark's own directory.
func commitID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
			return strings.TrimSpace(string(id))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		if d.IsDir() {
			if rel == "nwbench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
