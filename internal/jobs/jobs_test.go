package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestIDFormat(t *testing.T) {
	cases := []struct {
		node   string
		letter byte
		want   string
	}{
		{"", PlanLetter, "j00000001"},
		{"", SweepLetter, "s00000001"},
		{"alpha", PlanLetter, "alpha-j00000001"},
		{"b", SweepLetter, "b-s00000001"},
	}
	for _, c := range cases {
		tb := NewTable[*Job](c.node, c.letter, 4)
		j := New(context.Background(), 0)
		if err := tb.Add(j); err != nil {
			t.Fatal(err)
		}
		if j.ID != c.want || j.Snapshot().ID != c.want {
			t.Errorf("node %q letter %c: id %q, want %q", c.node, c.letter, j.ID, c.want)
		}
		if got := tb.Lookup(c.want); got != j {
			t.Errorf("Lookup(%q) = %v", c.want, got)
		}
		next := New(context.Background(), 0)
		tb.Add(next)
		if want := c.want[:len(c.want)-1] + "2"; next.ID != want {
			t.Errorf("second id %q, want %q", next.ID, want)
		}
	}
}

func TestNodeOf(t *testing.T) {
	cases := map[string]string{
		"b-j00000042": "b",
		"b-s00000007": "b",
		"a-j1":        "a",
		"j00000001":   "",
		"s00000001":   "",
		"x-y":         "",
		"x-":          "",
		"":            "",
	}
	for id, want := range cases {
		if got := NodeOf(id); got != want {
			t.Errorf("NodeOf(%q) = %q, want %q", id, got, want)
		}
	}
}

// finish completes j as done.
func finish(j *Job) { j.Finish(Done, 200, []byte("ok"), "") }

func TestRetentionEvictsOldestFinishedFirst(t *testing.T) {
	tb := NewTable[*Job]("", PlanLetter, 2)
	var js []*Job
	for i := 0; i < 4; i++ {
		j := New(context.Background(), 0)
		tb.Add(j)
		js = append(js, j)
	}
	// Finish out of submission order: 2, 0, 3. The bound keeps the two
	// most recently finished (0 and 3) and forgets 2, the oldest finished.
	finish(js[2])
	finish(js[0])
	finish(js[3])
	for i, want := range []bool{true, true, false, true} {
		if got := tb.Lookup(js[i].ID) != nil; got != want {
			t.Errorf("job %d retained=%v, want %v", i, got, want)
		}
	}
	// Job 1 never finished: it is never evicted however many jobs finish
	// after it. Jobs terminal at Add (born done, or finished by a worker
	// before registration) count against the bound like the rest.
	for i := 0; i < 10; i++ {
		tb.Add(NewDone([]byte("cached")))
	}
	if tb.Lookup(js[1].ID) != js[1] {
		t.Error("running job was evicted")
	}
	if tb.Lookup(js[0].ID) != nil || tb.Lookup(js[3].ID) != nil {
		t.Error("born-done jobs did not count against the retention bound")
	}
}

func TestLifecycleTransitions(t *testing.T) {
	j := New(context.Background(), 0)
	if v := j.Snapshot(); v.State != Queued || v.State.Terminal() {
		t.Fatalf("new job state %s", v.State)
	}
	if !j.Start() {
		t.Fatal("Start on a queued job failed")
	}
	if j.Start() {
		t.Fatal("Start ran twice")
	}
	// Canceling a running job only cancels its context.
	cause := errors.New("canceled by client")
	if st := j.Cancel(cause); st != Running {
		t.Fatalf("cancel of running job left %s", st)
	}
	if context.Cause(j.Context()) != cause {
		t.Fatalf("cause %v", context.Cause(j.Context()))
	}
	if !j.Finish(Canceled, 0, nil, cause.Error()) {
		t.Fatal("Finish refused")
	}
	if j.Finish(Done, 200, nil, "") {
		t.Fatal("second Finish succeeded")
	}
	if j.Finish(Running, 0, nil, "") {
		t.Fatal("Finish accepted a non-terminal state")
	}
	v := j.Snapshot()
	if v.State != Canceled || v.ErrMsg != cause.Error() {
		t.Fatalf("view %+v", v)
	}

	// A queued job becomes terminal right away and is skipped by Start.
	q := New(context.Background(), 0)
	if st := q.Cancel(cause); st != Canceled {
		t.Fatalf("cancel of queued job left %s", st)
	}
	if q.Start() {
		t.Fatal("canceled job started")
	}
	if v := q.Snapshot(); v.Status != 409 || v.ErrMsg != "job canceled before it started" {
		t.Fatalf("queued cancel view %+v", v)
	}

	d := NewDone([]byte("body"))
	if v := d.Snapshot(); v.State != Done || !v.CacheHit || v.Status != 200 || string(v.Body) != "body" {
		t.Fatalf("born-done view %+v", v)
	}
	if st := d.Cancel(cause); st != Done {
		t.Fatalf("cancel of done job left %s", st)
	}
}

func TestEventLog(t *testing.T) {
	j := New(context.Background(), 3)
	j.Start()
	j.Tick(7, "a")
	j.Log("row 1")
	j.Tick(9, "b")
	events, changed, terminal := j.EventsSince(0)
	if terminal || len(events) != 3 {
		t.Fatalf("%d events, terminal %v", len(events), terminal)
	}
	finish(j)
	select {
	case <-changed:
	default:
		t.Fatal("append did not wake the waiter")
	}
	j.Tick(11, "c") // after terminal: ignored
	j.Log("late")
	events, _, terminal = j.EventsSince(2)
	if !terminal || len(events) != 2 {
		t.Fatalf("tail %+v terminal %v", events, terminal)
	}
	want := []Event{
		{Seq: 3, Type: EventProgress, UnitsDone: 2, UnitsTotal: 3, Node: "b"},
		{Seq: 4, Type: EventDone, UnitsDone: 2, UnitsTotal: 3},
	}
	for i, e := range events {
		e.Seed = nil
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	if !events[1].Terminal() || events[0].Terminal() {
		t.Error("Event.Terminal misreports")
	}
}

// TestFinishCancelRaceOneTerminalEvent races Finish against Cancel on
// queued jobs (run under -race): exactly one terminal event is written
// and the retention hook fires once.
func TestFinishCancelRaceOneTerminalEvent(t *testing.T) {
	tb := NewTable[*Job]("", PlanLetter, 1000)
	for i := 0; i < 200; i++ {
		j := New(context.Background(), 0)
		tb.Add(j)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); j.Cancel(errors.New("cancel")) }()
		go func() { defer wg.Done(); j.Finish(Failed, 503, nil, "planning canceled") }()
		go func() { defer wg.Done(); j.Start() }()
		wg.Wait()
		events, _, terminal := j.EventsSince(0)
		if !terminal || len(events) != 1 || !events[0].Terminal() {
			t.Fatalf("job %d: events %+v", i, events)
		}
		if st := j.Snapshot().State; string(events[0].Type) != string(st) {
			t.Fatalf("terminal event %s but state %s", events[0].Type, st)
		}
	}
	tb.mu.Lock()
	n := len(tb.finished)
	tb.mu.Unlock()
	if n != 200 {
		t.Fatalf("%d retention entries for 200 finished jobs", n)
	}
}

func TestDrainIdempotent(t *testing.T) {
	tb := NewTable[*Job]("", SweepLetter, 4)
	j := New(context.Background(), 0)
	j.Start()
	tb.Add(j)
	// The owner finishes the job once its context is canceled.
	go func() {
		<-j.Context().Done()
		j.Finish(Canceled, 0, nil, context.Cause(j.Context()).Error())
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cause := errors.New("server draining")
	for i := 0; i < 2; i++ {
		if err := tb.Drain(ctx, cause); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if v := j.Snapshot(); v.State != Canceled || v.ErrMsg != "server draining" {
		t.Fatalf("drained job view %+v", v)
	}
	if err := tb.Add(New(context.Background(), 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after drain: %v, want ErrClosed", err)
	}
}

func TestDrainTimesOut(t *testing.T) {
	tb := NewTable[*Job]("", PlanLetter, 4)
	j := New(context.Background(), 0) // nobody ever finishes it
	tb.Add(j)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := tb.Drain(ctx, errors.New("drain")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: %v, want deadline exceeded", err)
	}
	if j.Context().Err() == nil {
		t.Fatal("drain did not cancel the live job's context")
	}
	if j.Snapshot().State != Queued {
		t.Fatal("drain finished a queued job; its worker must do that")
	}
}
