package anneal

import (
	"context"
	"reflect"
	"testing"
	"time"
)

func TestSplitSeed(t *testing.T) {
	if SplitSeed(7, 0) != 7 {
		t.Errorf("restart 0 must keep the base seed, got %d", SplitSeed(7, 0))
	}
	if SplitSeed(7, 3) != 10 {
		t.Errorf("SplitSeed(7,3) = %d", SplitSeed(7, 3))
	}
}

// Restart 0 of a multi-start run must be move-for-move identical to a plain
// Minimize with the base seed, and the whole Stats slice must be
// independent of the worker count.
func TestMinimizeRestartsDeterministic(t *testing.T) {
	sched := Schedule{InitialTemp: 50, FinalTemp: 1e-3, Cooling: 0.9, MovesPerTemp: 100}
	initial := []int{9, -7, 5, 12, -3}
	newTarget := func() *quadratic {
		return &quadratic{x: append([]int(nil), initial...)}
	}

	// Reference: plain single anneal with the base seed.
	ref := newTarget()
	refStats, err := Minimize(ref, ref.cost(), sched, NewRand(42))
	if err != nil {
		t.Fatal(err)
	}

	var statsByWorkers [][]Stats
	var finalX [][][]int
	for _, workers := range []int{1, 4} {
		targets := make([]*quadratic, 6)
		stats, err := MinimizeRestarts(context.Background(), 6, workers, func(k int) (Target, float64) {
			targets[k] = newTarget()
			return targets[k], targets[k].cost()
		}, sched, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != 6 {
			t.Fatalf("workers=%d: %d stats", workers, len(stats))
		}
		if !reflect.DeepEqual(stats[0], refStats) {
			t.Errorf("workers=%d: restart 0 stats %+v differ from plain run %+v", workers, stats[0], refStats)
		}
		if !reflect.DeepEqual(targets[0].x, ref.x) {
			t.Errorf("workers=%d: restart 0 state %v differs from plain run %v", workers, targets[0].x, ref.x)
		}
		xs := make([][]int, len(targets))
		for k, tg := range targets {
			xs[k] = tg.x
		}
		statsByWorkers = append(statsByWorkers, stats)
		finalX = append(finalX, xs)
	}
	if !reflect.DeepEqual(statsByWorkers[0], statsByWorkers[1]) {
		t.Error("per-restart stats depend on worker count")
	}
	if !reflect.DeepEqual(finalX[0], finalX[1]) {
		t.Error("per-restart final states depend on worker count")
	}

	// Different restarts must explore different streams: at least two
	// distinct acceptance counts across six seeds.
	distinct := map[int]bool{}
	for _, s := range statsByWorkers[0] {
		distinct[s.Accepted] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d restarts accepted identically; seeds not split", len(statsByWorkers[0]))
	}
}

// Cancellation reaches every restart: none is skipped, each reports
// Interrupted, and the call still returns a full Stats slice.
func TestMinimizeRestartsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sched := Schedule{InitialTemp: 50, FinalTemp: 1e-3, Cooling: 0.9, MovesPerTemp: 100}
	stats, err := MinimizeRestarts(ctx, 5, 4, func(k int) (Target, float64) {
		q := &quadratic{x: []int{4, 4, 4}}
		return q, q.cost()
	}, sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 5 {
		t.Fatalf("%d stats, want 5", len(stats))
	}
	for k, s := range stats {
		if !s.Interrupted {
			t.Errorf("restart %d not marked interrupted", k)
		}
		if s.Stopped == "" {
			t.Errorf("restart %d: empty Stopped", k)
		}
	}
}

// A mid-run deadline must stop multi-start promptly (the per-plateau polls
// work under the pool too).
func TestMinimizeRestartsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	sched := Schedule{InitialTemp: 100, FinalTemp: 1e-9, Cooling: 0.999999, MovesPerTemp: 64}
	start := time.Now()
	stats, err := MinimizeRestarts(ctx, 3, 2, func(k int) (Target, float64) {
		q := &quadratic{x: []int{100, -100}}
		return q, q.cost()
	}, sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", elapsed)
	}
	for k, s := range stats {
		if !s.Interrupted {
			t.Errorf("restart %d finished a near-infinite schedule?", k)
		}
	}
}

func TestMinimizeRestartsBadSchedule(t *testing.T) {
	if _, err := MinimizeRestarts(context.Background(), 2, 2, func(k int) (Target, float64) {
		return &quadratic{x: []int{1}}, 1
	}, Schedule{Cooling: 2}, 1); err == nil {
		t.Error("invalid schedule accepted")
	}
}
