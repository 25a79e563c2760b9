package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"copack/internal/exp"
)

// inlineEnqueue is the simplest host queue: run the closure on a fresh
// goroutine immediately. Tests that need queue-full or draining behavior
// substitute their own.
func inlineEnqueue(ctx context.Context, fn func(ctx context.Context)) error {
	go fn(ctx)
	return nil
}

func newTestManager(t *testing.T, tweak func(*Config)) *Manager {
	t.Helper()
	cfg := Config{Enqueue: inlineEnqueue, LocalConcurrency: 4}
	if tweak != nil {
		tweak(&cfg)
	}
	m := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return m
}

func table2Spec(t *testing.T, seeds ...int64) *Spec {
	t.Helper()
	req := Request{Kind: "table2", Seeds: seeds, RandomTries: 2}
	sp, err := req.Normalize(64)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func awaitJob(t *testing.T, j *Job) View {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v", j.ID, err)
	}
	return j.Snapshot()
}

func TestNormalizeTable(t *testing.T) {
	cases := []struct {
		name    string
		req     Request
		wantErr string // substring of the error, "" = success
	}{
		{"table2 defaults tries", Request{Kind: "table2", NumSeeds: 3}, ""},
		{"table2 explicit seeds", Request{Kind: "table2", Seeds: []int64{5, 1}}, ""},
		{"table3 ok", Request{Kind: "table3", NumSeeds: 2}, ""},
		{"missing kind", Request{NumSeeds: 2}, "missing required field"},
		{"unknown kind", Request{Kind: "table9", NumSeeds: 2}, "unknown sweep kind"},
		{"table3 rejects tries", Request{Kind: "table3", NumSeeds: 2, RandomTries: 5}, "applies only to table2"},
		{"negative tries", Request{Kind: "table2", NumSeeds: 2, RandomTries: -1}, "random_tries must be"},
		{"both seed forms", Request{Kind: "table2", Seeds: []int64{1}, NumSeeds: 2}, "mutually exclusive"},
		{"no seeds", Request{Kind: "table2"}, "needs seeds or num_seeds"},
		{"negative num_seeds", Request{Kind: "table2", NumSeeds: -3}, "num_seeds must be"},
		{"over cap", Request{Kind: "table2", NumSeeds: 65}, "exceed the 64-unit cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := tc.req.Normalize(64)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(sp.Seeds) == 0 {
					t.Error("normalized spec has no seeds")
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			var he *HTTPError
			if !errors.As(err, &he) || he.Status != 400 {
				t.Errorf("want *HTTPError with status 400, got %#v", err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// Regression: a huge num_seeds must be rejected against the unit cap
// before anything is sized by it — not after allocating the seed list
// (hundreds of MB for 5e7) or panicking in makeslice (1<<62).
func TestNormalizeCapsNumSeedsBeforeAllocating(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"5e7", `{"kind":"table3","num_seeds":50000000}`},
		{"2^62", `{"kind":"table2","num_seeds":4611686018427387904}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Normalize panicked: %v", r)
				}
			}()
			req, err := DecodeRequest(strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = req.Normalize(64)
			runtime.ReadMemStats(&after)
			var he *HTTPError
			if !errors.As(err, &he) || he.Status != 400 {
				t.Fatalf("want a 400 *HTTPError, got %#v", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("rejecting the request allocated %d bytes, want < 1 MB", alloc)
			}
		})
	}
}

func TestNormalizeDefaultsAreCanonical(t *testing.T) {
	// num_seeds 2 and seeds [1,2], default and explicit tries, all
	// normalize to the same spec (and so the same unit keys).
	a, err := (&Request{Kind: "table2", NumSeeds: 2}).Normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Request{Kind: "table2", Seeds: []int64{1, 2}, RandomTries: 10}).Normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seeds {
		if a.UnitKey(i) != b.UnitKey(i) {
			t.Errorf("unit %d: keys differ across equivalent requests", i)
		}
	}
}

func TestDecodeRequestStrict(t *testing.T) {
	if _, err := DecodeRequest(strings.NewReader(`{"kind":"table2","num_seeds":2,"typo":1}`)); err == nil {
		t.Error("unknown field was not rejected")
	}
	if _, err := DecodeRequest(strings.NewReader(`{"kind":"table2"}{"kind":"table3"}`)); err == nil {
		t.Error("trailing JSON was not rejected")
	}
	if _, err := DecodeRequest(strings.NewReader(``)); err == nil {
		t.Error("empty body was not rejected")
	}
	req, err := DecodeRequest(strings.NewReader(`{"kind":"table2","num_seeds":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind != "table2" || req.NumSeeds != 2 {
		t.Errorf("decoded %+v", req)
	}
}

func TestUnitKeyIsSeedContentAddressed(t *testing.T) {
	a := table2Spec(t, 1, 2, 3)
	b := table2Spec(t, 3, 9)
	// Seed 3 is unit 2 of sweep a and unit 0 of sweep b: same key, so the
	// same ring owner computes it in both sweeps.
	if a.UnitKey(2) != b.UnitKey(0) {
		t.Error("same (kind, tries, seed) produced different unit keys")
	}
	if a.UnitKey(0) == a.UnitKey(1) {
		t.Error("different seeds share a unit key")
	}
	// A parameter change re-keys every unit.
	c := *a
	c.RandomTries = 7
	if a.UnitKey(0) == c.UnitKey(0) {
		t.Error("random_tries change did not change the unit key")
	}
}

func TestStandaloneSweepMatchesHarness(t *testing.T) {
	m := newTestManager(t, nil)
	sp := table2Spec(t, 1, 2)
	j, err := m.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	view := awaitJob(t, j)
	if view.State != StateDone {
		t.Fatalf("state %s, want done (%s)", view.State, view.ErrMsg)
	}
	var body ResultBody
	if err := json.Unmarshal(view.Body, &body); err != nil {
		t.Fatal(err)
	}
	// The distributed reduction must agree with the single-process
	// harness sweep: same seeds, same aggregation.
	want, err := exp.SweepTable2(context.Background(), sp.Seeds, sp.RandomTries, exp.Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(body.Table2)
	ref, _ := json.Marshal(want)
	if !bytes.Equal(got, ref) {
		t.Errorf("sweep body diverges from exp.SweepTable2:\n got %s\nwant %s", got, ref)
	}
	if body.Summary != want.Format() {
		t.Error("summary diverges from the harness rendering")
	}
}

func TestEventLogDeterministicShape(t *testing.T) {
	m := newTestManager(t, nil)
	sp := table2Spec(t, 1, 2, 3)
	j, err := m.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	awaitJob(t, j)
	events, _, terminal := j.EventsSince(0)
	if !terminal {
		t.Fatal("log not terminal after Wait")
	}
	var ticks, terminals int
	last := 0
	for i, e := range events {
		if e.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if e.UnitsTotal != 3 {
			t.Errorf("event %d units_total %d", i, e.UnitsTotal)
		}
		switch {
		case e.Type == EventProgress:
			ticks++
			if e.UnitsDone != last+1 {
				t.Errorf("progress tick jumped %d -> %d", last, e.UnitsDone)
			}
			last = e.UnitsDone
			if e.Seed == nil || e.Node == "" {
				t.Errorf("progress event %d missing seed/node", i)
			}
		case e.Terminal():
			terminals++
			if i != len(events)-1 {
				t.Errorf("terminal event at %d of %d", i, len(events))
			}
		}
	}
	if ticks != 3 {
		t.Errorf("%d progress ticks, want 3", ticks)
	}
	if terminals != 1 {
		t.Errorf("%d terminal events, want exactly 1", terminals)
	}
	if events[len(events)-1].Type != EventDone {
		t.Errorf("last event %s, want done", events[len(events)-1].Type)
	}
}

// blockingDispatcher owns every unit and blocks RunShard until released,
// so tests can cancel mid-sweep deterministically.
type blockingDispatcher struct {
	release chan struct{}
	fail    bool
	runs    int
	sat     bool
	satN    int
}

func (d *blockingDispatcher) Self() string                   { return "self" }
func (d *blockingDispatcher) Preference(key string) []string { return []string{"peer", "self"} }
func (d *blockingDispatcher) Saturated(ctx context.Context, node string) bool {
	d.satN++
	return d.sat
}

func (d *blockingDispatcher) RunShard(ctx context.Context, node string, sr ShardRequest) (*ShardResponse, error) {
	d.runs++
	if d.release != nil {
		select {
		case <-d.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if d.fail {
		return nil, errors.New("injected shard failure")
	}
	out := &ShardResponse{}
	for _, u := range sr.Units {
		sp, err := sr.Spec.Normalize(0)
		if err != nil {
			return nil, err
		}
		res, err := RunUnit(sp, u, nil)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, res)
	}
	return out, nil
}

func TestShardFailureFallsBackLocalZeroLostUnits(t *testing.T) {
	// Reference body from a standalone (dispatcherless) run.
	ref := newTestManager(t, nil)
	sp := table2Spec(t, 1, 2, 3)
	rj, err := ref.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	refView := awaitJob(t, rj)
	if refView.State != StateDone {
		t.Fatalf("reference sweep: %s", refView.State)
	}

	// Every unit is owned by a peer whose RunShard always fails: the
	// coordinator must degrade every batch to local computation and the
	// body must not change by a byte.
	m := newTestManager(t, nil)
	d := &blockingDispatcher{fail: true}
	m.SetDispatcher(d)
	j, err := m.Submit(context.Background(), table2Spec(t, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	view := awaitJob(t, j)
	if view.State != StateDone {
		t.Fatalf("state %s (%s), want done", view.State, view.ErrMsg)
	}
	if d.runs == 0 {
		t.Error("dispatcher was never consulted")
	}
	if !bytes.Equal(view.Body, refView.Body) {
		t.Error("failover body differs from standalone body")
	}
}

func TestSaturatedPeerSkippedBeforeDialing(t *testing.T) {
	m := newTestManager(t, nil)
	d := &blockingDispatcher{sat: true}
	m.SetDispatcher(d)
	j, err := m.Submit(context.Background(), table2Spec(t, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	view := awaitJob(t, j)
	if view.State != StateDone {
		t.Fatalf("state %s, want done", view.State)
	}
	if d.runs != 0 {
		t.Errorf("RunShard called %d times despite saturation", d.runs)
	}
	if d.satN == 0 {
		t.Error("Saturated was never consulted")
	}
}

func TestCancelMidSweepEmitsCanceledTerminal(t *testing.T) {
	m := newTestManager(t, nil)
	d := &blockingDispatcher{release: make(chan struct{})}
	m.SetDispatcher(d)
	j, err := m.Submit(context.Background(), table2Spec(t, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel(errors.New("canceled by client"))
	view := awaitJob(t, j)
	if view.State != StateCanceled {
		t.Fatalf("state %s, want canceled", view.State)
	}
	if view.ErrMsg != "canceled by client" {
		t.Errorf("cancel reason %q", view.ErrMsg)
	}
	events, _, _ := j.EventsSince(0)
	lastEvent := events[len(events)-1]
	if lastEvent.Type != EventCanceled {
		t.Errorf("last event %s, want canceled", lastEvent.Type)
	}
}

func TestDrainCancelsRunningSweeps(t *testing.T) {
	m := NewManager(Config{Enqueue: inlineEnqueue})
	d := &blockingDispatcher{release: make(chan struct{})}
	m.SetDispatcher(d)
	j, err := m.Submit(context.Background(), table2Spec(t, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	view := j.Snapshot()
	if view.State != StateCanceled {
		t.Fatalf("state %s, want canceled", view.State)
	}
	if view.ErrMsg != "server draining" {
		t.Errorf("drain reason %q", view.ErrMsg)
	}
	if _, err := m.Submit(context.Background(), table2Spec(t, 1)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: %v, want ErrDraining", err)
	}
}

func TestRunShardLocalValidation(t *testing.T) {
	m := newTestManager(t, nil)
	wire := table2Spec(t, 1, 2).Wire()
	if _, err := m.RunShardLocal(context.Background(), &ShardRequest{Spec: wire}); err == nil {
		t.Error("empty unit list accepted")
	}
	if _, err := m.RunShardLocal(context.Background(), &ShardRequest{Spec: wire, Units: []int{2}}); err == nil {
		t.Error("out-of-range unit accepted")
	}
	resp, err := m.RunShardLocal(context.Background(), &ShardRequest{Spec: wire, Units: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d results, want 2", len(resp.Results))
	}
	// Results come back in request order: unit 1 is seed 2.
	want, err := RunUnit(table2Spec(t, 1, 2), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Results[0], want) {
		t.Error("shard results not in request order")
	}
}

func TestEnqueueBackpressureRetries(t *testing.T) {
	// The first two offers hit a full queue; the unit must still run.
	var offers int
	enq := func(ctx context.Context, fn func(ctx context.Context)) error {
		offers++
		if offers <= 2 {
			return ErrQueueFull
		}
		go fn(ctx)
		return nil
	}
	m := newTestManager(t, func(c *Config) { c.Enqueue = enq })
	j, err := m.Submit(context.Background(), table2Spec(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	view := awaitJob(t, j)
	if view.State != StateDone {
		t.Fatalf("state %s, want done", view.State)
	}
	if offers < 3 {
		t.Errorf("%d offers, want >= 3", offers)
	}
}

func TestManagerAccessors(t *testing.T) {
	m := newTestManager(t, func(c *Config) { c.MaxSeeds = 7 })
	if got := m.MaxSeeds(); got != 7 {
		t.Fatalf("MaxSeeds = %d, want 7", got)
	}
	sp := table2Spec(t, 1)
	j, err := m.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lookup(j.ID) != j {
		t.Fatalf("Lookup(%q) did not return the submitted job", j.ID)
	}
	if m.Lookup("nope") != nil {
		t.Fatal("Lookup of unknown id returned a job")
	}
	if j.Spec() != sp {
		t.Fatal("Spec() did not return the submitted spec")
	}
	awaitJob(t, j)
}

func TestUnknownKindFailsSweep(t *testing.T) {
	// A spec the normalizer would never produce: the coordinator must
	// surface the unit error as a failed terminal event, not a hang.
	m := newTestManager(t, nil)
	j, err := m.Submit(context.Background(), &Spec{Kind: "nope", Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	view := awaitJob(t, j)
	if view.State != StateFailed {
		t.Fatalf("state %s, want failed", view.State)
	}
	if !strings.Contains(view.ErrMsg, "unknown kind") {
		t.Fatalf("error %q does not name the unknown kind", view.ErrMsg)
	}
	events, _, terminal := j.EventsSince(0)
	if !terminal {
		t.Fatal("log not terminal after failure")
	}
	last := events[len(events)-1]
	if last.Type != EventFailed || last.Error != view.ErrMsg {
		t.Fatalf("last event %+v, want failed with %q", last, view.ErrMsg)
	}
}

func TestReduceErrors(t *testing.T) {
	sp := table2Spec(t, 1, 2)
	if _, err := sp.Reduce(make([]json.RawMessage, 1)); err == nil {
		t.Fatal("Reduce accepted a short result slice")
	}
	bad := []json.RawMessage{json.RawMessage(`{`), json.RawMessage(`{}`)}
	if _, err := sp.Reduce(bad); err == nil || !strings.Contains(err.Error(), "unit 0") {
		t.Fatalf("Reduce on corrupt table2 unit: %v, want unit-indexed decode error", err)
	}
	req := Request{Kind: "table3", Seeds: []int64{1, 2}}
	sp3, err := req.Normalize(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp3.Reduce(bad); err == nil || !strings.Contains(err.Error(), "unit 0") {
		t.Fatalf("Reduce on corrupt table3 unit: %v, want unit-indexed decode error", err)
	}
	if _, err := (&Spec{Kind: "nope", Seeds: []int64{1}}).Reduce(bad[1:]); err == nil {
		t.Fatal("Reduce accepted an unknown kind")
	}
}

func TestTable3SweepSingleSeed(t *testing.T) {
	req := Request{Kind: "table3", Seeds: []int64{1}}
	sp, err := req.Normalize(64)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, nil)
	j, err := m.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	view := awaitJob(t, j)
	if view.State != StateDone {
		t.Fatalf("state %s (%s), want done", view.State, view.ErrMsg)
	}
	var body ResultBody
	if err := json.Unmarshal(view.Body, &body); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if body.Kind != "table3" || body.Table3 == nil || body.Table2 != nil {
		t.Fatalf("body kind %q table3=%v table2=%v", body.Kind, body.Table3 != nil, body.Table2 != nil)
	}
	if body.Summary != body.Table3.Format() {
		t.Fatal("summary does not round-trip through the reduced table3 result")
	}
}
