package driver

import (
	"reflect"
	"sync"
	"testing"

	"nestwrf/internal/machine"
	"nestwrf/internal/model"
	"nestwrf/internal/nest"
)

// TestConcurrentRunDeterministic is the concurrent-server guard for the
// modeled path: many goroutines Run the same configuration at once
// while another keeps dropping the phase-cost memo, so phases are
// evaluated concurrently on pooled netsim Networks and the memo is
// filled by racing writers. Every Run must complete race-free and
// produce the Result of a lone sequential Run. Run under -race in CI.
func TestConcurrentRunDeterministic(t *testing.T) {
	defer model.ResetCache()

	cfg := nest.Root("race", 286, 307)
	cfg.AddChild("s1", 394, 418, 3, 5, 5)
	cfg.AddChild("s2", 313, 337, 3, 140, 150)
	opt := Options{
		Machine:  machine.BGL(),
		Ranks:    64,
		Strategy: Concurrent,
		MapKind:  MapMultiLevel,
	}
	want, err := Run(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 8, 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // resetter: keep the memo cold while runs are in flight
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			model.ResetCache()
		}
	}()
	errs := make(chan error, workers*iters)
	results := make(chan Result, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := Run(cfg, opt)
				if err != nil {
					errs <- err
					return
				}
				results <- res
			}
		}()
	}
	for i := 0; i < workers*iters; i++ {
		select {
		case err := <-errs:
			close(stop)
			t.Fatal(err)
		case res := <-results:
			if !reflect.DeepEqual(res, want) {
				close(stop)
				t.Fatalf("concurrent Run drifted:\n got %+v\nwant %+v", res, want)
			}
		}
	}
	close(stop)
	wg.Wait()
}
