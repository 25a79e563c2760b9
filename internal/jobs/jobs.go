// Package jobs is the one lifecycle every tracked unit of work in the
// service shares: plan jobs (one finger/pad assignment scored on
// routability and IR drop) and Table 2/3 seed sweeps alike.
//
// A Job is a one-way state machine — queued → running → done|failed, or
// queued → canceled, or running → canceled when its owner gives up — with
// a context that carries the cancel cause, a terminal-once Finish, and an
// append-only Event log that ends in exactly one terminal event. A Table
// mints node-prefixed IDs, serves lookups, forgets the oldest finished
// jobs beyond a retention bound (jobs born terminal count too) and drains
// on shutdown. What a job computes, and on which queue, is the caller's
// business: this package owns only the bookkeeping.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// State is a job's lifecycle state; the strings are the wire form.
type State string

// Job lifecycle: queued → running → done|failed, queued → canceled, or
// running → canceled.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Canceled
}

// EventType tags one entry of a job's event log.
type EventType string

// Event types. Progress ticks carry a strictly increasing units_done;
// log events carry harness progress lines; exactly one terminal event
// (done/failed/canceled) ends every log. Heartbeats are a property of an
// HTTP stream, not the log — they never appear here, which keeps the log
// deterministic in length.
const (
	EventProgress EventType = "progress"
	EventLog      EventType = "log"
	EventDone     EventType = "done"
	EventFailed   EventType = "failed"
	EventCanceled EventType = "canceled"
)

// Event is one entry of a job's append-only event log, the unit an event
// stream serializes. Seq is the 1-based log position.
type Event struct {
	Seq        int       `json:"seq"`
	Type       EventType `json:"type"`
	UnitsDone  int       `json:"units_done"`
	UnitsTotal int       `json:"units_total"`
	// Seed is the completed unit's seed (progress events).
	Seed *int64 `json:"seed,omitempty"`
	// Node names who computed the unit (progress) — diagnostic only,
	// completion order and placement vary with scheduling.
	Node string `json:"node,omitempty"`
	// Line is a progress line (log events).
	Line string `json:"line,omitempty"`
	// Error is the failure reason (failed/canceled events).
	Error string `json:"error,omitempty"`
}

// Terminal reports whether the event ends its log.
func (e Event) Terminal() bool {
	return e.Type == EventDone || e.Type == EventFailed || e.Type == EventCanceled
}

// Job is one tracked unit of work. All methods are safe for concurrent
// use.
type Job struct {
	// ID is the job's routable identifier, minted by Table.Add.
	// Immutable once the job is registered.
	ID string

	ctx    context.Context
	cancel context.CancelCauseFunc
	units  int // units_total of every event

	mu       sync.Mutex
	state    State
	status   int    // HTTP status for the result or the failure
	body     []byte // result body once done
	errMsg   string
	cacheHit bool // born done: the result was replayed, nothing ran
	done     int  // units completed so far
	events   []Event
	changed  chan struct{} // closed and replaced on every append
	finished chan struct{} // closed once terminal
	onFinish func()        // retention hook installed by Table.Add
}

// New builds a queued job of units work units whose context is a child
// of parent, so canceling parent (server drain) cancels the job.
func New(parent context.Context, units int) *Job {
	ctx, cancel := context.WithCancelCause(parent)
	return &Job{
		ctx:      ctx,
		cancel:   cancel,
		units:    units,
		state:    Queued,
		changed:  make(chan struct{}),
		finished: make(chan struct{}),
	}
}

// NewDone builds a job that is terminal at birth: its result was already
// known (a cache hit), so it never queues or runs.
func NewDone(body []byte) *Job {
	j := New(context.Background(), 0)
	j.cacheHit = true
	j.Finish(Done, 200, body, "")
	return j
}

// Context is the job's context: canceled by Cancel, by its parent, and
// once the job is terminal. context.Cause names the cancel reason.
func (j *Job) Context() context.Context { return j.ctx }

// Start moves queued → running. It returns false when the job is no
// longer queued (canceled while it waited); the caller must then skip it.
func (j *Job) Start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Queued {
		return false
	}
	j.state = Running
	return true
}

// append adds one event to the log and wakes every waiter. Caller holds
// j.mu.
func (j *Job) append(e Event) {
	e.Seq = len(j.events) + 1
	e.UnitsTotal = j.units
	e.UnitsDone = j.done
	j.events = append(j.events, e)
	close(j.changed)
	j.changed = make(chan struct{})
}

// Tick records one completed unit: units_done increments under the same
// lock that orders the log, so progress ticks are strictly increasing no
// matter how many workers complete units concurrently.
func (j *Job) Tick(seed int64, node string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.done++
	j.append(Event{Type: EventProgress, Seed: &seed, Node: node})
}

// Log records a progress line.
func (j *Job) Log(line string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.append(Event{Type: EventLog, Line: line})
}

// Finish moves the job to the terminal state st with its HTTP status and
// either its result body (done) or its reason (failed/canceled), appends
// the terminal event and releases the job's context. The first terminal
// transition wins, so the log holds exactly one terminal event; Finish
// reports whether this call made it.
func (j *Job) Finish(st State, status int, body []byte, msg string) bool {
	j.mu.Lock()
	ok := j.finishLocked(st, status, body, msg)
	hook := j.onFinish
	j.mu.Unlock()
	if ok {
		j.cancel(nil)
		if hook != nil {
			hook()
		}
	}
	return ok
}

// finishLocked is Finish's state change. Caller holds j.mu.
func (j *Job) finishLocked(st State, status int, body []byte, msg string) bool {
	if j.state.Terminal() || !st.Terminal() {
		return false
	}
	j.state, j.status, j.body, j.errMsg = st, status, body, msg
	j.append(Event{Type: EventType(st), Error: msg})
	close(j.finished)
	return true
}

// Cancel cancels the job's context with cause. A queued job becomes
// terminal right away (409: it never started, so its worker skips it); a
// running job keeps running until its owner notices the context and
// finishes it — a plan with its best-so-far partial result, a sweep with
// a canceled event naming cause. Cancel returns the state it leaves.
func (j *Job) Cancel(cause error) State {
	j.cancel(cause)
	j.mu.Lock()
	ok := j.state == Queued && j.finishLocked(Canceled, 409, nil, "job canceled before it started")
	hook, st := j.onFinish, j.state
	j.mu.Unlock()
	if ok && hook != nil {
		hook()
	}
	return st
}

// View is a job's externally visible state in one consistent read.
type View struct {
	ID         string
	State      State
	Status     int
	ErrMsg     string
	Body       []byte
	CacheHit   bool
	UnitsDone  int
	UnitsTotal int
}

// Snapshot returns the job's current View.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return View{
		ID:         j.ID,
		State:      j.state,
		Status:     j.status,
		ErrMsg:     j.errMsg,
		Body:       j.body,
		CacheHit:   j.cacheHit,
		UnitsDone:  j.done,
		UnitsTotal: j.units,
	}
}

// EventsSince returns the log entries after position from (0 returns the
// whole log), plus a channel that closes on the next append and whether
// the log already holds its terminal event. A streaming consumer loops:
// drain the slice, then wait on the channel (or a heartbeat timer, or the
// client's context) unless terminal was set.
func (j *Job) EventsSince(from int) (events []Event, changed <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		events = append(events, j.events[from:]...)
	}
	return events, j.changed, j.state.Terminal()
}

// Wait blocks until the job is terminal or ctx expires — test and drain
// plumbing; HTTP consumers poll or stream instead.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Lifecycle returns the job itself, so a *Job is a Handle.
func (j *Job) Lifecycle() *Job { return j }

// Handle is what a Table holds: a *Job, or a caller's struct embedding
// one next to its own immutable fields.
type Handle interface{ Lifecycle() *Job }

// ID letters: the character after the node prefix names what kind of job
// an ID belongs to.
const (
	PlanLetter  = 'j'
	SweepLetter = 's'
)

// ErrClosed rejects Add on a drained table.
var ErrClosed = errors.New("jobs: table closed")

// Table is one kind of job on one node: ID minting, lookup, retention of
// finished jobs, and drain. All methods are safe for concurrent use.
type Table[H Handle] struct {
	prefix string // "a-j" with a node, "j" without
	retain int

	mu       sync.Mutex
	closed   bool
	next     int64
	byID     map[string]H
	finished []string // finished job IDs, oldest first
}

// NewTable builds a table minting IDs "<node>-<letter>00000001"
// ("<letter>00000001" without a node) that retains at most retain
// finished jobs.
func NewTable[H Handle](node string, letter byte, retain int) *Table[H] {
	prefix := string(rune(letter))
	if node != "" {
		prefix = node + "-" + prefix
	}
	return &Table[H]{prefix: prefix, retain: retain, byID: make(map[string]H)}
}

// NodeOf returns the node prefix of a node-prefixed job ID ("b" for
// "b-j00000042" or "b-s00000007"), or "" for an unprefixed ID or one that
// names no job kind.
func NodeOf(id string) string {
	node, rest, ok := strings.Cut(id, "-")
	if !ok || rest == "" || (rest[0] != PlanLetter && rest[0] != SweepLetter) {
		return ""
	}
	return node
}

// Add assigns h's job the next ID and registers it. A job that is (or
// becomes) terminal enters the retention list, which forgets the oldest
// finished jobs beyond the bound; a queued or running job is never
// forgotten. Add fails with ErrClosed once the table is drained, and then
// mints no ID.
func (t *Table[H]) Add(h H) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	t.next++
	id := fmt.Sprintf("%s%08d", t.prefix, t.next)
	t.byID[id] = h
	j := h.Lifecycle()
	j.mu.Lock()
	j.ID = id
	terminal := j.state.Terminal()
	if !terminal {
		j.onFinish = func() {
			t.mu.Lock()
			t.retireLocked(id)
			t.mu.Unlock()
		}
	}
	j.mu.Unlock()
	if terminal {
		t.retireLocked(id)
	}
	return nil
}

// retireLocked records a finished job and forgets the oldest finished
// jobs beyond the bound. Caller holds t.mu.
func (t *Table[H]) retireLocked(id string) {
	t.finished = append(t.finished, id)
	for len(t.finished) > t.retain {
		delete(t.byID, t.finished[0])
		t.finished = t.finished[1:]
	}
}

// Lookup returns the job with the given ID, or the zero H.
func (t *Table[H]) Lookup(id string) H {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// Drain closes the table to new jobs, cancels the context of every job it
// holds with cause (a no-op for finished ones; a queued job stays queued,
// so its worker still runs it to a terminal state under the canceled
// context), and waits until each is terminal or ctx expires. Idempotent.
func (t *Table[H]) Drain(ctx context.Context, cause error) error {
	t.mu.Lock()
	t.closed = true
	held := make([]*Job, 0, len(t.byID))
	for _, h := range t.byID {
		held = append(held, h.Lifecycle())
	}
	t.mu.Unlock()
	for _, j := range held {
		j.cancel(cause)
	}
	for _, j := range held {
		if err := j.Wait(ctx); err != nil {
			return fmt.Errorf("jobs: drain: %w", err)
		}
	}
	return nil
}
