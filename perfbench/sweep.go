package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"time"

	"copack/internal/sweep"
)

// sweepSeeds is the unit count of every sweep sweep-fleet submits.
const sweepSeeds = 4

// sweepCase is one sweep of the closed loop.
type sweepCase struct {
	kind  sweep.Kind
	seeds []int64
	entry string // the node it is submitted to, which coordinates it
}

// sweepRun is what the client saw for one sweep.
type sweepRun struct {
	c          sweepCase
	latency    time.Duration // submit to terminal event
	firstEvent time.Duration // submit to first event
	units      int
	body       []byte
	shards     int64 // shards the coordinator forwarded
}

// sweepSource hands out the closed loop's sweeps: table3 and table2 in
// turn, each over perSweep seeds no earlier sweep of the run used.
type sweepSource struct {
	rng      *rand.Rand
	used     map[int64]bool
	n        int
	perSweep int
}

func newSweepSource(seed int64, perSweep int) *sweepSource {
	return &sweepSource{rng: rand.New(rand.NewSource(seed)), used: map[int64]bool{}, perSweep: perSweep}
}

func (s *sweepSource) next() sweepCase {
	kind := sweep.KindTable3
	if s.n%2 == 1 {
		kind = sweep.KindTable2
	}
	s.n++
	c := sweepCase{kind: kind, entry: fleetNodes[s.rng.Intn(len(fleetNodes))]}
	for len(c.seeds) < s.perSweep {
		sd := s.rng.Int63n(1<<31) + 1
		if !s.used[sd] {
			s.used[sd] = true
			c.seeds = append(c.seeds, sd)
		}
	}
	return c
}

func (c sweepCase) spec() (*sweep.Spec, error) {
	req := sweep.Request{Kind: string(c.kind), Seeds: c.seeds}
	return req.Normalize(0)
}

// runSweep submits one sweep, follows its event stream to the terminal
// event and fetches the result, checking each step.
func runSweep(ctx context.Context, rep *report, f *benchFleet, c sweepCase) (*sweepRun, bool) {
	label := fmt.Sprintf("%s sweep %v", c.kind, c.seeds)
	body, err := json.Marshal(sweep.Request{Kind: string(c.kind), Seeds: c.seeds})
	if err != nil {
		panic(err) // a fixed struct of strings and ints always marshals
	}
	before := f.nodeCounters(c.entry)
	run := &sweepRun{c: c}
	t0 := time.Now()
	resp, b, err := f.do(ctx, http.MethodPost, c.entry, "/sweeps", body)
	if !rep.check(err == nil && resp.StatusCode == http.StatusAccepted, "%s: submit failed: %v %s", label, err, b) {
		return run, false
	}
	var sub struct {
		ID        string `json:"id"`
		EventsURL string `json:"events_url"`
		ResultURL string `json:"result_url"`
	}
	if !rep.check(json.Unmarshal(b, &sub) == nil, "%s: bad submit response %s", label, b) {
		return run, false
	}
	terminal, seen, err := followEvents(ctx, f, c.entry, sub.EventsURL, t0, run)
	run.latency = time.Since(t0)
	if !rep.check(err == nil, "%s: event stream: %v", label, err) {
		return run, false
	}
	ok := rep.check(terminal == sweep.EventDone, "%s ended %q, want done", label, terminal)
	for _, sd := range c.seeds {
		ok = rep.check(seen[sd], "%s: no progress event for seed %d", label, sd) && ok
	}
	resp, run.body, err = f.do(ctx, http.MethodGet, c.entry, sub.ResultURL, nil)
	if !rep.check(err == nil && resp.StatusCode == http.StatusOK, "%s: result fetch failed: %v", label, err) {
		return run, false
	}
	ok = checkSweepResult(rep, label, c, run.body) && ok

	// Exact work: every unit ran once, and the coordinator forwarded one
	// shard per unit whose ring owner is another node.
	d := delta(before, f.nodeCounters(c.entry))
	run.units = int(d["sweep/units/forwarded"] + d["sweep/units/local"])
	run.shards = d["sweep/shards/forwarded"]
	ok = rep.check(run.units == len(c.seeds), "%s: %d units ran, want %d", label, run.units, len(c.seeds)) && ok
	if sp, err := c.spec(); rep.check(err == nil, "%s: %v", label, err) {
		want := 0
		for i := range sp.Seeds {
			if f.routers[c.entry].Preference(sp.UnitKey(i))[0] != c.entry {
				want++
			}
		}
		ok = rep.check(run.shards == int64(want), "%s: %d shards forwarded, the ring places %d away", label, run.shards, want) && ok
	} else {
		ok = false
	}
	return run, ok
}

// checkSweepResult checks a sweep's result body names the sweep's kind
// and every one of its seeds, in order.
func checkSweepResult(rep *report, label string, c sweepCase, body []byte) bool {
	var res sweep.ResultBody
	if !rep.check(json.Unmarshal(body, &res) == nil, "%s: result is not a sweep body", label) {
		return false
	}
	ok := rep.check(res.Kind == string(c.kind) && reflect.DeepEqual(res.Seeds, c.seeds), "%s: result is for %s %v", label, res.Kind, res.Seeds)
	switch c.kind {
	case sweep.KindTable3:
		ok = rep.check(res.Table3 != nil && reflect.DeepEqual(res.Table3.Seeds, c.seeds), "%s: table3 result lacks seeds", label) && ok
	case sweep.KindTable2:
		ok = rep.check(res.Table2 != nil && reflect.DeepEqual(res.Table2.Seeds, c.seeds), "%s: table2 result lacks seeds", label) && ok
	}
	return ok
}

// followEvents reads a sweep's server-sent event stream up to its
// terminal event, noting when the first event arrived and which seeds
// reported progress.
func followEvents(ctx context.Context, f *benchFleet, node, path string, t0 time.Time, run *sweepRun) (sweep.EventType, map[int64]bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.urls[node]+path, nil)
	if err != nil {
		return "", nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("events answered %d", resp.StatusCode)
	}
	seen := map[int64]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e sweep.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return "", nil, fmt.Errorf("bad event %q: %w", data, err)
		}
		if run.firstEvent == 0 {
			run.firstEvent = time.Since(t0)
		}
		if e.Type == sweep.EventProgress && e.Seed != nil {
			seen[*e.Seed] = true
		}
		if e.Terminal() {
			return e.Type, seen, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, err
	}
	return "", nil, fmt.Errorf("stream ended without a terminal event")
}

func runSweepFleet(cfg config) (*report, error) {
	rep := newReport()
	f, setup, rawSetup, err := timeSetups(&rep.box, func() (*benchFleet, error) {
		f := startFleet(cfg.trace)
		// Warm-up: one 1-seed sweep of each kind. It is the same in every
		// run, so set-up does the same work whatever the run's seed.
		warm := newSweepSource(0x3a3a, 1)
		for k := 0; k < 2; k++ {
			c := warm.next()
			if _, ok := runSweep(context.Background(), rep, f, c); !ok {
				f.close()
				return nil, fmt.Errorf("warm-up %s sweep failed", c.kind)
			}
		}
		return f, nil
	}, func(f *benchFleet) { f.close() })
	if err != nil {
		return nil, err
	}
	defer f.close()

	ctx := context.Background()
	perSweep := sweepSeeds
	if cfg.small {
		perSweep = 1
	}
	src := newSweepSource(cfg.seed, perSweep)
	fleetBefore := f.counters()
	var (
		runs []*sweepRun
		busy time.Duration // sum of sweep latencies: the loop minus kernel pauses
	)
	start := time.Now()
	end := deadline(cfg.seconds)
	units := 0
	// Whole rounds only (a table3 sweep, then a table2 sweep), so every
	// run weighs the two kinds the same.
	for time.Now().Before(end) {
		for k := 0; k < 2; k++ {
			rep.box.sample(3)
			run, ok := runSweep(ctx, rep, f, src.next())
			rep.attempted++
			if !ok {
				rep.failed++
				continue
			}
			units += run.units
			busy += run.latency
			runs = append(runs, run)
		}
	}
	elapsed := time.Since(start).Seconds()
	fleetCounts := delta(fleetBefore, f.counters())
	rep.check(fleetCounts["fleet/retries"] == 0, "fleet retried %d times", fleetCounts["fleet/retries"])
	rep.check(fleetCounts["fleet/failovers"] == 0, "fleet failed over %d times", fleetCounts["fleet/failovers"])

	// Repetition: the first sweep of each kind again gives the same bytes
	// and the same shard count.
	for _, first := range firstOfEachKind(runs) {
		again, ok := runSweep(ctx, rep, f, first.c)
		if ok {
			rep.check(bytes.Equal(again.body, first.body), "%s sweep %v: repeated result differs", first.c.kind, first.c.seeds)
			rep.check(again.shards == first.shards, "%s sweep %v: repeated sweep forwarded %d shards, first %d",
				first.c.kind, first.c.seeds, again.shards, first.shards)
		}
	}

	var rounds []float64
	for i := 0; i+1 < len(runs); i += 2 {
		if runs[i].c.kind == sweep.KindTable3 && runs[i+1].c.kind == sweep.KindTable2 {
			rounds = append(rounds, ms(runs[i].latency+runs[i+1].latency))
		}
	}
	rep.setTime("p50_ms", median(rounds))
	rep.setRate("ops_per_s", float64(units)/busy.Seconds())
	rep.setSetup(setup, rawSetup)
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	if cfg.trace {
		traceSweeps(rep, f, runs, fleetCounts, units, elapsed)
	}
	return rep, nil
}

func firstOfEachKind(runs []*sweepRun) []*sweepRun {
	var out []*sweepRun
	have := map[sweep.Kind]bool{}
	for _, r := range runs {
		if !have[r.c.kind] {
			have[r.c.kind] = true
			out = append(out, r)
		}
	}
	return out
}

// traceSweeps derives the per-layer split: unit compute and the reduction
// timed in process (and checked byte-equal against the fleet's bodies),
// submit and shard handler times from the owner-side spans, shard hops
// from those paired with the sender-side times, and the makespan share
// that unit compute does not explain.
func traceSweeps(rep *report, f *benchFleet, runs []*sweepRun, fleetCounts map[string]int64, units int, elapsed float64) {
	unitMs := map[sweep.Kind][]float64{}
	var reduce []float64
	for _, first := range firstOfEachKind(runs) {
		sp, err := first.c.spec()
		if !rep.check(err == nil, "%v", err) {
			continue
		}
		results := make([]json.RawMessage, len(sp.Seeds))
		for i := range sp.Seeds {
			t := time.Now()
			results[i], err = sweep.RunUnit(sp, i, nil)
			unitMs[sp.Kind] = append(unitMs[sp.Kind], ms(time.Since(t)))
			rep.check(err == nil, "%s unit %d: %v", sp.Kind, i, err)
		}
		t := time.Now()
		body, err := sp.Reduce(results)
		reduce = append(reduce, ms(time.Since(t)))
		rep.check(err == nil && bytes.Equal(body, first.body), "%s sweep %v: in-process reduction differs from the fleet's result", sp.Kind, sp.Seeds)
	}
	// Owner-side handler times. A table2 shard's hop is what its sender
	// waited beyond the owner's handler: dialing, both transfers, the
	// router's own work on each end, and waiting for the one P while the
	// sweep's other units compute.
	var shard, submit, hop, self []float64
	for _, s := range f.spans.snapshot() {
		self = append(self, ms(s.self))
		switch {
		case s.path == "/sweeps" && s.method == http.MethodPost:
			submit = append(submit, ms(s.dur))
		case s.path == "/sweeps/shard":
			sent, ok := f.peers.get(s.peer)
			rep.check(ok, "shard span %d on %s has no sender-side time", s.peer, s.node)
			if ok && s.kind == string(sweep.KindTable2) {
				shard = append(shard, ms(s.dur))
				hop = append(hop, ms(sent-s.dur))
			}
		}
	}
	lat := map[sweep.Kind][]float64{}
	var first, overhead []float64
	shards := int64(0)
	for _, r := range runs {
		lat[r.c.kind] = append(lat[r.c.kind], ms(r.latency))
		first = append(first, ms(r.firstEvent))
		shards += r.shards
		if r.c.kind != sweep.KindTable2 {
			continue
		}
		// Unit compute spread perfectly over the workload's Ps is the
		// least makespan a sweep could have; the rest is sweep and fleet
		// cost, which is most of a table2 sweep.
		par := runtime.GOMAXPROCS(0)
		if r.units < par {
			par = r.units
		}
		explained := mean(unitMs[r.c.kind]) * float64(r.units) / float64(par)
		overhead = append(overhead, 1-explained/ms(r.latency))
	}
	rep.metrics["sweep3_p50_ms"] = median(lat[sweep.KindTable3])
	rep.metrics["sweep2_p50_ms"] = median(lat[sweep.KindTable2])
	rep.metrics["sweep_units_per_s"] = float64(units) / elapsed
	rep.metrics["sweep.unit_ms"] = median(unitMs[sweep.KindTable3])
	rep.metrics["sweep.reduce_ms"] = mean(reduce)
	rep.metrics["sweep.shard_ms"] = median(shard)
	rep.metrics["service.submit_ms"] = median(submit)
	rep.metrics["fleet.hop_ms"] = median(hop)
	rep.metrics["sweep.first_event_ms"] = median(first)
	rep.metrics["sweep.overhead_frac"] = median(overhead)
	rep.metrics["sweep.units"] = float64(units)
	rep.metrics["sweep.shards"] = float64(shards)
	rep.metrics["fleet.forwarded"] = float64(fleetCounts["fleet/sweeps/shards-forwarded"])
	rep.metrics["fleet.retries"] = float64(fleetCounts["fleet/retries"])
	rep.metrics["fleet.failovers"] = float64(fleetCounts["fleet/failovers"])
	rep.metrics["failed_frac"] = frac(float64(rep.failed), float64(rep.attempted))
	rep.metrics["trace.overhead_frac"] = frac(median(self), median(shard))
}
