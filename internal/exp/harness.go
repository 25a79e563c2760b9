package exp

import (
	"context"
	"fmt"
	"sync"

	"copack/internal/parallel"
)

// Harness configures how an experiment is executed. It only affects wall
// clock: every experiment is reduced in fixed index order, so its result is
// byte-identical for any Workers value.
type Harness struct {
	// Workers bounds the concurrency of the experiment's independent work
	// units (circuits, (ψ, circuit) instances, seeds). 0 means one per CPU;
	// 1 runs sequentially.
	Workers int
	// Progress, when non-nil, receives one line per completed work unit.
	// Calls are serialized; completion order (not line content) may vary
	// with Workers.
	Progress func(line string)
}

// runUnits runs unit(i) for every i in [0, n) over the harness pool
// and returns the results at their index, so a caller that reduces them in
// index order gets the same answer for any Workers value. A cancelled ctx
// stops scheduling new units and the call returns the lowest-index error.
// After each completed unit, line renders its progress line (when the
// harness has a Progress sink); done counts the units completed so far,
// this one included. The final done count is returned either way.
func runUnits[T any](ctx context.Context, h Harness, n int,
	unit func(i int) (T, error),
	line func(i int, r T, done int) string) ([]T, int, error) {
	out := make([]T, n)
	var mu sync.Mutex
	done := 0
	err := parallel.ForEachErr(ctx, n, h.Workers, func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, err := unit(i)
		if err != nil {
			return err
		}
		out[i] = r
		mu.Lock()
		defer mu.Unlock()
		done++
		if h.Progress != nil {
			h.Progress(line(i, r, done))
		}
		return nil
	})
	return out, done, err
}

// sweepSeeds runs run(seed) for every seed over the harness pool and
// returns the results in seed order; run should execute its experiment
// single-worker, since nested pools would oversubscribe. Progress
// gets one "<name> seed S done (k/n)" line per seed; a failed or cancelled
// sweep is flushed with a final "<name> stopped" tick carrying the
// completed-seed count, so a consumer tailing the stream never sees it end
// silently mid-sweep.
func sweepSeeds[R any](ctx context.Context, seeds []int64, h Harness, name string,
	run func(seed int64) (R, error)) ([]R, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("exp: sweep needs at least one seed")
	}
	results, done, err := runUnits(ctx, h, len(seeds),
		func(i int) (R, error) { return run(seeds[i]) },
		func(i int, _ R, done int) string {
			return fmt.Sprintf("%s seed %d done (%d/%d)", name, seeds[i], done, len(seeds))
		})
	if err != nil {
		if h.Progress != nil {
			h.Progress(fmt.Sprintf("%s stopped: %v (%d/%d seeds done)", name, err, done, len(seeds)))
		}
		return nil, err
	}
	return results, nil
}
