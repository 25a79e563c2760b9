package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"copack/internal/fleet"
	"copack/internal/service"
)

// fleetNodes is the fleet shape sweep-fleet runs: three nodes in one
// process, talking over loopback.
var fleetNodes = []string{"a", "b", "c"}

// swapHandler lets a node's listener start before its router exists: the
// routers need every node's URL.
type swapHandler struct{ v atomic.Value }

type handlerBox struct{ h http.Handler }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.v.Load().(handlerBox).h.ServeHTTP(w, r)
}

// span is one request a node's handler served, as the traced run's timing
// middleware saw it.
type span struct {
	node   string
	method string
	path   string
	kind   string // sweep kind of a /sweeps/shard hop
	peer   int64  // the peerLog entry of a request a peer sent, else 0
	dur    time.Duration
	self   time.Duration // time the middleware itself spent
}

// spanLog collects spans from every node.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// peerHeader carries a peer request's peerLog number to the owner's
// timing middleware, pairing the sender's and the owner's times.
const peerHeader = "X-Perfbench-Peer"

// timed wraps a node's handler with the traced run's timing middleware.
func timed(node string, log *spanLog, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		peer, _ := strconv.ParseInt(r.Header.Get(peerHeader), 10, 64) // absent on client requests: 0
		kind := ""
		if r.URL.Path == "/sweeps/shard" {
			kind = shardKind(r)
		}
		t1 := time.Now()
		h.ServeHTTP(w, r)
		t2 := time.Now()
		log.add(span{node: node, method: r.Method, path: r.URL.Path, kind: kind, peer: peer,
			dur: t2.Sub(t1), self: t1.Sub(t0) + time.Since(t2)})
	})
}

// peerLog records, by number, how long each request one node sent another
// took from the sender's side: from the round trip's start until the
// sender closed the response body.
type peerLog struct {
	mu   sync.Mutex
	next int64
	durs map[int64]time.Duration
}

func (l *peerLog) start() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *peerLog) done(n int64, d time.Duration) {
	l.mu.Lock()
	l.durs[n] = d
	l.mu.Unlock()
}

func (l *peerLog) get(n int64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.durs[n]
	return d, ok
}

// peerTransport is the traced run's fleet.Config.Transport: it numbers
// every peer request and times it into a peerLog.
type peerTransport struct {
	base http.RoundTripper
	log  *peerLog
}

func (t *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := t.log.start()
	req = req.Clone(req.Context())
	req.Header.Set(peerHeader, strconv.FormatInt(n, 10))
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.log.done(n, time.Since(t0)) }}
	return resp, nil
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// shardKind reads the sweep kind out of a shard request, leaving the body
// for the handler to read again.
func shardKind(r *http.Request) string {
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return ""
	}
	var sr struct {
		Spec struct {
			Kind string `json:"kind"`
		} `json:"spec"`
	}
	_ = json.Unmarshal(body, &sr) // an unreadable body leaves the kind empty; the handler rejects it
	return sr.Spec.Kind
}

// benchFleet is a running three-node fleet.
type benchFleet struct {
	ids     []string
	svcs    map[string]*service.Server
	routers map[string]*fleet.Router
	servers map[string]*httptest.Server
	urls    map[string]string
	spans   *spanLog // nil when untraced
	peers   *peerLog // nil when untraced
	client  *http.Client
}

// startFleet boots the fleet with the zero-value service and fleet
// configs, apart from node IDs, URLs and the recorder that puts each
// router's counters into its node's metrics (as fpserved wires it). A
// traced fleet also times every peer request on both ends.
func startFleet(traced bool) *benchFleet {
	f := &benchFleet{
		ids:     fleetNodes,
		svcs:    map[string]*service.Server{},
		routers: map[string]*fleet.Router{},
		servers: map[string]*httptest.Server{},
		urls:    map[string]string{},
	}
	if traced {
		f.spans = &spanLog{}
		f.peers = &peerLog{durs: map[int64]time.Duration{}}
	}
	sws := map[string]*swapHandler{}
	for _, id := range f.ids {
		sw := &swapHandler{}
		sw.v.Store(handlerBox{http.NotFoundHandler()})
		ts := httptest.NewServer(sw)
		sws[id], f.servers[id], f.urls[id] = sw, ts, ts.URL
		f.svcs[id] = service.New(service.Config{NodeID: id})
	}
	for _, id := range f.ids {
		cfg := fleet.Config{Self: id, Nodes: f.urls, Recorder: f.svcs[id].MetricsRecorder()}
		if traced {
			cfg.Transport = &peerTransport{base: http.DefaultTransport, log: f.peers}
		}
		rt, err := fleet.New(f.svcs[id], cfg)
		if err != nil {
			panic(err) // static, valid membership
		}
		f.routers[id] = rt
		var h http.Handler = rt.Handler()
		if traced {
			h = timed(id, f.spans, h)
		}
		sws[id].v.Store(handlerBox{h})
	}
	// The load generator's own connections: at most nproc in flight.
	f.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: runtime.NumCPU(),
		MaxConnsPerHost:     runtime.NumCPU(),
	}}
	return f
}

// close drains every node and stops its listener.
func (f *benchFleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range f.ids {
		_ = f.svcs[id].Shutdown(ctx) // a drain that overruns leaves nothing to recover
	}
	for _, id := range f.ids {
		f.servers[id].Close()
	}
	f.client.CloseIdleConnections()
}

// counters sums the named metrics counter over every node.
func (f *benchFleet) counters() map[string]int64 {
	out := map[string]int64{}
	for _, id := range f.ids {
		for k, v := range f.svcs[id].MetricsSnapshot().Counters {
			out[k] += v
		}
	}
	return out
}

// nodeCounters is one node's counters.
func (f *benchFleet) nodeCounters(id string) map[string]int64 {
	return f.svcs[id].MetricsSnapshot().Counters
}

// delta is after − before for every key of after.
func delta(before, after map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// do sends one request to a node and reads the whole response.
func (f *benchFleet) do(ctx context.Context, method, node, path string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, f.urls[node]+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp, nil, fmt.Errorf("reading %s %s: %w", method, path, err)
	}
	return resp, b, nil
}
