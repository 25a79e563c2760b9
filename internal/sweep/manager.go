package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"copack/internal/jobs"
	"copack/internal/obs"
)

// Enqueue submits fn to the host's bounded execution queue; fn later runs
// on a queue worker. The sentinel errors tell the manager how to react:
// ErrQueueFull means back off and retry (the queue sheds load, the sweep
// absorbs the wait), ErrDraining means the host is shutting down and the
// sweep should wind down to a canceled terminal event.
type Enqueue func(ctx context.Context, fn func(ctx context.Context)) error

// Sentinel outcomes of an Enqueue attempt. The service's job queue
// returns these for plan submissions too.
var (
	ErrQueueFull = errors.New("sweep: execution queue full")
	ErrDraining  = errors.New("sweep: host draining")
)

// errServerDraining is the cancel cause Drain attaches, rendered into the
// terminal canceled event.
var errServerDraining = errors.New("server draining")

// Dispatcher gives a Manager its fleet: consistent-hash unit placement
// plus remote shard execution and the fleet-wide admission signal. A nil
// Dispatcher means standalone — every unit runs locally. The fleet router
// implements this interface; the sweep package never imports it.
type Dispatcher interface {
	// Self is the local node's ID.
	Self() string
	// Preference orders every node by ring distance from a unit content
	// key: the owner first, then the failover successors.
	Preference(key string) []string
	// Saturated reports whether node's advertised queue depth says it
	// cannot take more work right now — consulted before forwarding a
	// shard, so admission happens before the hop, not via a 429 after it.
	Saturated(ctx context.Context, node string) bool
	// RunShard executes the listed units on node and returns their
	// results in request order. Any error (dead node, 429/503, truncated
	// response) means the caller re-runs those units locally — the
	// degradation path that makes a mid-sweep node kill lose zero units.
	RunShard(ctx context.Context, node string, sr ShardRequest) (*ShardResponse, error)
}

// Config tunes a Manager. The zero value of everything but Enqueue is
// usable standalone.
type Config struct {
	// NodeID prefixes sweep job IDs ("a-s00000001") so a fleet router can
	// route polls and streams to the coordinator. Empty means standalone.
	NodeID string
	// MaxSeeds caps a sweep's unit count (400 beyond it). Default 64.
	MaxSeeds int
	// MaxRetained bounds the finished-sweep history kept for polling.
	// Default 64.
	MaxRetained int
	// ShardBatch is how many units ride in one forwarded shard request.
	// Small batches keep progress ticks granular and bound what one dead
	// peer can delay; default 1.
	ShardBatch int
	// LocalConcurrency bounds how many of a sweep's units may sit in the
	// local execution queue at once, so one sweep cannot monopolize the
	// queue plans share. Default 2.
	LocalConcurrency int
	// Enqueue submits unit closures to the host's bounded queue.
	// Required.
	Enqueue Enqueue
	// Recorder receives the manager's counters (prefix them upstream).
	Recorder obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxSeeds == 0 {
		c.MaxSeeds = 64
	}
	if c.MaxRetained <= 0 {
		c.MaxRetained = 64
	}
	if c.ShardBatch <= 0 {
		c.ShardBatch = 1
	}
	if c.LocalConcurrency <= 0 {
		c.LocalConcurrency = 2
	}
	return c
}

// enqueueRetryDelay is how long the coordinator waits before re-offering
// a unit to a full queue. The queue bounds memory, not the sweep: a sweep
// absorbs backpressure by waiting where plans shed 429s.
const enqueueRetryDelay = 2 * time.Millisecond

// Event, EventType and the Event* constants are the job event log's
// (internal/jobs); a sweep's /sweeps/{id}/events stream serializes them.
type (
	Event     = jobs.Event
	EventType = jobs.EventType
)

// Sweep event types.
const (
	EventProgress = jobs.EventProgress
	EventLog      = jobs.EventLog
	EventDone     = jobs.EventDone
	EventFailed   = jobs.EventFailed
	EventCanceled = jobs.EventCanceled
)

// Job is one sweep: its lifecycle record (ID "s00000001", node-prefixed
// to "a-s00000001" in a fleet) next to its spec.
type Job struct {
	*jobs.Job
	spec *Spec
}

// Spec returns the job's normalized sweep spec.
func (j *Job) Spec() *Spec { return j.spec }

// Manager runs a node's sweeps: it accepts specs, runs a coordinator
// goroutine per sweep, and serves lookups for the polling/streaming
// handlers. All methods are safe for concurrent use.
type Manager struct {
	cfg   Config
	rec   obs.Recorder
	table *jobs.Table[*Job]

	dispMu sync.RWMutex
	disp   Dispatcher
}

// NewManager builds a Manager.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:   cfg,
		rec:   obs.OrNop(cfg.Recorder),
		table: jobs.NewTable[*Job](cfg.NodeID, jobs.SweepLetter, cfg.MaxRetained),
	}
}

// SetDispatcher installs the fleet dispatcher. Call before serving
// traffic (the fleet router does this at construction time).
func (m *Manager) SetDispatcher(d Dispatcher) {
	m.dispMu.Lock()
	m.disp = d
	m.dispMu.Unlock()
}

func (m *Manager) dispatcher() Dispatcher {
	m.dispMu.RLock()
	defer m.dispMu.RUnlock()
	return m.disp
}

// MaxSeeds exposes the unit cap for request normalization.
func (m *Manager) MaxSeeds() int { return m.cfg.MaxSeeds }

// Submit registers a sweep and starts its coordinator. base should be the
// host's drain context so Shutdown cancels every sweep.
func (m *Manager) Submit(base context.Context, sp *Spec) (*Job, error) {
	j := &Job{Job: jobs.New(base, len(sp.Seeds)), spec: sp}
	j.Start() // a sweep has no queued phase: its units queue instead
	if err := m.table.Add(j); err != nil {
		j.Cancel(ErrDraining)
		return nil, ErrDraining
	}
	m.rec.Add("jobs/submitted", 1)
	go m.run(j)
	return j, nil
}

// Lookup returns the job with the given ID, or nil.
func (m *Manager) Lookup(id string) *Job { return m.table.Lookup(id) }

// Drain stops the manager: new submissions are rejected, every running
// sweep is canceled (its stream gets a clean terminal event naming the
// drain), and the call waits for the coordinators to finish or ctx to
// expire. Idempotent.
func (m *Manager) Drain(ctx context.Context) error {
	return m.table.Drain(ctx, errServerDraining)
}

// run is the coordinator: place units, fan shards out, degrade failures
// to local computation, reduce in index order, terminate the event log.
// The coordinator is the only goroutine that finishes a sweep, so the
// counter it records names the terminal state.
func (m *Manager) run(j *Job) {
	st, body, msg := m.execute(j)
	switch st {
	case jobs.Done:
		m.rec.Add("jobs/completed", 1)
	case jobs.Failed:
		m.rec.Add("jobs/failed", 1)
	case jobs.Canceled:
		m.rec.Add("jobs/canceled", 1)
	}
	j.Finish(st, 0, body, msg)
}

// execute runs the placement/fan-out/reduce pipeline for one job and
// returns the terminal state it reached, with the reduced body (done) or
// the reason (failed/canceled).
func (m *Manager) execute(j *Job) (jobs.State, []byte, string) {
	sp, ctx := j.spec, j.Context()
	n := len(sp.Seeds)
	results := make([]json.RawMessage, n)
	var firstErr errOnce

	// Place every unit: owner "" means local (standalone, or the ring
	// walk starts at self). Grouping preserves unit index order within
	// each shard; the per-owner goroutine launch order is sorted for tidy
	// scheduling but is irrelevant to the result.
	groups := map[string][]int{}
	disp := m.dispatcher()
	if disp == nil {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		groups[""] = all
	} else {
		self := disp.Self()
		for i := 0; i < n; i++ {
			owner := disp.Preference(sp.UnitKey(i))[0]
			if owner == self {
				owner = ""
			}
			groups[owner] = append(groups[owner], i)
		}
	}
	peers := make([]string, 0, len(groups))
	for p := range groups {
		if p != "" {
			peers = append(peers, p)
		}
	}
	sort.Strings(peers)

	sem := make(chan struct{}, m.cfg.LocalConcurrency)
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(peer string, units []int) {
			defer wg.Done()
			m.runPeerShard(j, disp, peer, units, results, sem, &firstErr)
		}(p, groups[p])
	}
	if local := groups[""]; len(local) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.runUnitsLocal(j, local, results, sem, &firstErr)
		}()
	}
	wg.Wait()

	if ctx.Err() != nil {
		cause := context.Cause(ctx)
		msg := "server draining"
		if cause != nil && !errors.Is(cause, context.Canceled) {
			msg = cause.Error()
		}
		return jobs.Canceled, nil, msg
	}
	if err := firstErr.get(); err != nil {
		return jobs.Failed, nil, err.Error()
	}
	body, err := sp.Reduce(results)
	if err != nil {
		return jobs.Failed, nil, err.Error()
	}
	return jobs.Done, body, ""
}

// runPeerShard drives one owner's shard in ShardBatch-sized slices:
// admission check → forward → on any trouble, fail the batch over to
// local computation so a dead or saturated peer costs latency, never
// units.
func (m *Manager) runPeerShard(j *Job, disp Dispatcher, peer string, units []int, results []json.RawMessage, sem chan struct{}, firstErr *errOnce) {
	for start := 0; start < len(units); start += m.cfg.ShardBatch {
		if j.Context().Err() != nil {
			return
		}
		end := start + m.cfg.ShardBatch
		if end > len(units) {
			end = len(units)
		}
		batch := units[start:end]
		if disp.Saturated(j.Context(), peer) {
			m.rec.Add("admission/local-fallback", 1)
			m.runUnitsLocal(j, batch, results, sem, firstErr)
			continue
		}
		resp, err := disp.RunShard(j.Context(), peer, ShardRequest{Spec: j.spec.Wire(), Units: batch})
		if err != nil || len(resp.Results) != len(batch) {
			if j.Context().Err() != nil {
				return
			}
			m.rec.Add("shards/failover-local", 1)
			m.runUnitsLocal(j, batch, results, sem, firstErr)
			continue
		}
		m.rec.Add("shards/forwarded", 1)
		for k, u := range batch {
			results[u] = resp.Results[k]
			m.rec.Add("units/forwarded", 1)
			j.Tick(j.spec.Seeds[u], peer)
		}
	}
}

// runUnitsLocal executes units through the local bounded queue, at most
// LocalConcurrency in flight, ticking progress per completion. Each unit
// index has exactly one writer into results, so the slice needs no lock.
func (m *Manager) runUnitsLocal(j *Job, units []int, results []json.RawMessage, sem chan struct{}, firstErr *errOnce) {
	node := m.cfg.NodeID
	if node == "" {
		node = "local"
	}
	var wg sync.WaitGroup
	for _, u := range units {
		if j.Context().Err() != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		case <-j.Context().Done():
			wg.Wait()
			return
		}
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := m.execUnit(j.Context(), j.spec, u, j.Log)
			if err != nil {
				if j.Context().Err() == nil {
					firstErr.set(fmt.Errorf("unit %d (seed %d): %w", u, j.spec.Seeds[u], err))
				}
				return
			}
			results[u] = res
			m.rec.Add("units/local", 1)
			j.Tick(j.spec.Seeds[u], node)
		}(u)
	}
	wg.Wait()
}

// execUnit runs one unit on the host's bounded queue: offer the closure,
// back off briefly while the queue is full, then wait for the worker to
// finish it. Enqueued closures always run — the host drains its queue on
// shutdown — so the wait cannot leak.
func (m *Manager) execUnit(ctx context.Context, sp *Spec, u int, progress func(string)) (json.RawMessage, error) {
	done := make(chan struct{})
	var (
		res    json.RawMessage
		runErr error
	)
	fn := func(ctx context.Context) {
		defer close(done)
		if err := ctx.Err(); err != nil {
			runErr = err
			return
		}
		res, runErr = RunUnit(sp, u, progress)
	}
	for {
		err := m.cfg.Enqueue(ctx, fn)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(enqueueRetryDelay):
		}
	}
	<-done
	return res, runErr
}

// RunShardLocal executes a forwarded shard on this node: normalize the
// spec exactly like a top-level submission, run the listed units through
// the bounded queue, and return their canonical results in request
// order. This is the body of the internal POST /sweeps/shard hop.
func (m *Manager) RunShardLocal(ctx context.Context, sr *ShardRequest) (*ShardResponse, error) {
	sp, err := sr.normalize(m.cfg.MaxSeeds)
	if err != nil {
		return nil, err
	}
	out := &ShardResponse{Results: make([]json.RawMessage, len(sr.Units))}
	sem := make(chan struct{}, m.cfg.LocalConcurrency)
	var (
		wg       sync.WaitGroup
		firstErr errOnce
	)
	for k, u := range sr.Units {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return nil, ctx.Err()
		}
		wg.Add(1)
		go func(k, u int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := m.execUnit(ctx, sp, u, nil)
			if err != nil {
				firstErr.set(err)
				return
			}
			out.Results[k] = res
		}(k, u)
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return nil, err
	}
	m.rec.Add("shards/served", 1)
	return out, nil
}

// errOnce keeps the first error set on it.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
	}
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
