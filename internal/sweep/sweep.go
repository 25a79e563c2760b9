// Package sweep turns the experiment harness's parameter sweeps (the
// paper's Table 2/3 reproductions repeated over seed sets — exactly the
// workload exp.SweepTable2/SweepTable3 compute single-node) into
// distributed jobs with streaming progress.
//
// A sweep is decomposed into its index-ordered work units (one unit per
// seed; a unit is a pure function of the sweep parameters and its seed).
// The node that accepts a sweep becomes its coordinator: it places every
// unit on the fleet's consistent-hash ring by the unit's content key,
// groups the units into per-owner shards, forwards each shard to its
// owner (subject to fleet-wide admission control — a peer whose
// advertised queue depth is saturated is skipped before the hop), and
// runs whatever remains — unowned units, shards whose owner is dead or
// saturated — through the local node's bounded service queue. Shard
// placement, worker counts and mid-sweep node deaths change only *where*
// a unit computes, never its bytes.
//
// Determinism is the package's contract: every unit result is serialized
// to canonical JSON by the node that computed it, the coordinator stores
// results at their unit index, and the final reduction (exp.ReduceSweep2/
// ReduceSweep3) walks the completed slice in strict index order. Go's
// encoding/json round-trips float64 exactly (shortest-form encoding), so
// decode(encode(x)) == x and the final body is byte-identical for any
// fleet size, shard placement or worker count. The golden and chaos tests
// in the service and fleet packages lock this down.
//
// Progress streams as an append-only event log per job: one tick per
// completed unit (units_done strictly increasing), optional log lines
// from the harness's per-unit progress callbacks, and exactly one
// terminal event (done, failed or canceled — including on server drain),
// which is what lets a client tail GET /sweeps/{id}/events without ever
// seeing the stream end silently.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"copack/internal/exp"
)

// Kind names a sweep workload.
type Kind string

// Supported sweep kinds: the paper's Table 2 (assignment quality vs the
// random baseline) and Table 3 (exchange + IR improvement) repeated over
// seeds.
const (
	KindTable2 Kind = "table2"
	KindTable3 Kind = "table3"
)

// Request is the JSON body of POST /sweeps and the spec half of a shard
// request. Unknown fields are rejected (strict decode), so clients
// discover typos instead of silently sweeping defaults.
type Request struct {
	// Kind selects the workload: "table2" or "table3".
	Kind string `json:"kind"`
	// Seeds lists the sweep's seeds explicitly. Mutually exclusive with
	// NumSeeds.
	Seeds []int64 `json:"seeds,omitempty"`
	// NumSeeds asks for seeds 1..N (exp.Seeds). Mutually exclusive with
	// Seeds.
	NumSeeds int `json:"num_seeds,omitempty"`
	// RandomTries is Table 2's random-baseline sample count (default 10).
	// Rejected for table3, which has no random baseline.
	RandomTries int `json:"random_tries,omitempty"`
}

// HTTPError is a request-layer failure carrying the HTTP status it maps
// to, mirroring the service package's error discipline.
type HTTPError struct {
	Status int
	Msg    string
}

func (e *HTTPError) Error() string { return e.Msg }

func errf(status int, format string, args ...any) *HTTPError {
	return &HTTPError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// Spec is a validated, normalized sweep: the canonical form that derives
// unit keys, feeds unit execution and renders into the final body. Two
// requests that normalize identically (num_seeds 3 vs seeds [1,2,3],
// default vs explicit random_tries) share one Spec.
type Spec struct {
	Kind        Kind
	Seeds       []int64
	RandomTries int // 0 for table3
}

// Normalize validates a Request against the unit cap and produces its
// Spec. Failures are *HTTPError values with client-fault statuses.
func (r *Request) Normalize(maxSeeds int) (*Spec, error) {
	sp := &Spec{}
	switch Kind(r.Kind) {
	case KindTable2:
		sp.Kind = KindTable2
		sp.RandomTries = r.RandomTries
		if sp.RandomTries < 0 {
			return nil, errf(http.StatusBadRequest, "random_tries must be >= 0, got %d", r.RandomTries)
		}
		if sp.RandomTries == 0 {
			sp.RandomTries = 10 // the harness default, made explicit for the unit key
		}
	case KindTable3:
		sp.Kind = KindTable3
		if r.RandomTries != 0 {
			return nil, errf(http.StatusBadRequest, "random_tries applies only to table2 sweeps")
		}
	case "":
		return nil, errf(http.StatusBadRequest, "missing required field \"kind\" (want table2 or table3)")
	default:
		return nil, errf(http.StatusBadRequest, "unknown sweep kind %q (want table2 or table3)", r.Kind)
	}
	switch {
	case len(r.Seeds) > 0 && r.NumSeeds > 0:
		return nil, errf(http.StatusBadRequest, "seeds and num_seeds are mutually exclusive")
	case len(r.Seeds) > 0:
		sp.Seeds = append([]int64(nil), r.Seeds...)
	case r.NumSeeds > 0:
		// Checked before exp.Seeds sizes a slice by it.
		if maxSeeds > 0 && r.NumSeeds > maxSeeds {
			return nil, errf(http.StatusBadRequest, "%d seeds exceed the %d-unit cap", r.NumSeeds, maxSeeds)
		}
		sp.Seeds = exp.Seeds(r.NumSeeds)
	case r.NumSeeds < 0:
		return nil, errf(http.StatusBadRequest, "num_seeds must be >= 0, got %d", r.NumSeeds)
	default:
		return nil, errf(http.StatusBadRequest, "a sweep needs seeds or num_seeds")
	}
	if maxSeeds > 0 && len(sp.Seeds) > maxSeeds {
		return nil, errf(http.StatusBadRequest, "%d seeds exceed the %d-unit cap", len(sp.Seeds), maxSeeds)
	}
	return sp, nil
}

// DecodeRequest reads and strictly decodes a Request from an HTTP body.
func DecodeRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, errf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		}
		if errors.Is(err, io.EOF) {
			return nil, errf(http.StatusBadRequest, "empty request body")
		}
		return nil, errf(http.StatusBadRequest, "decoding sweep request: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, errf(http.StatusBadRequest, "request body holds more than one JSON object")
	}
	return &req, nil
}

// Wire renders the spec back into its canonical Request form — the body a
// coordinator ships inside shard requests, with every default explicit so
// both ends derive identical unit keys.
func (sp *Spec) Wire() Request {
	return Request{Kind: string(sp.Kind), Seeds: sp.Seeds, RandomTries: sp.RandomTries}
}

// unitKeyVersion versions the unit content-address so a change to unit
// semantics or the result schema re-shards cleanly.
const unitKeyVersion = "copack-sweep-unit-v1"

// UnitKey is unit i's content address: a pure function of the sweep
// parameters and the unit's seed (NOT its index or the surrounding seed
// set), so the same logical unit lands on the same ring owner whichever
// sweep it appears in — the property that lets a fleet reuse placement
// the way the plan cache reuses bodies.
func (sp *Spec) UnitKey(i int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nkind=%s tries=%d\nseed=%d\n", unitKeyVersion, sp.Kind, sp.RandomTries, sp.Seeds[i])
	return hex.EncodeToString(h.Sum(nil))
}

// RunUnit executes unit i of the sweep and returns its result as
// canonical JSON. It is a pure function of (spec, seed): the harness runs
// single-worker inside a unit (units are the parallel grain; nested pools
// would oversubscribe), and progress, when non-nil, receives the
// harness's per-row progress lines.
func RunUnit(sp *Spec, i int, progress func(line string)) (json.RawMessage, error) {
	ctx, h := context.Background(), exp.Harness{Workers: 1, Progress: progress}
	switch sp.Kind {
	case KindTable2:
		res, err := exp.Table2(ctx, sp.Seeds[i], sp.RandomTries, h)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case KindTable3:
		res, err := exp.Table3(ctx, sp.Seeds[i], h)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	default:
		return nil, fmt.Errorf("sweep: unknown kind %q", sp.Kind)
	}
}

// ResultBody is the JSON body of GET /sweeps/{id}/result. Every field is
// a pure function of the spec and the index-ordered unit results, so the
// body is byte-identical across fleet sizes, shard placements and worker
// counts (struct field order + exact float64 round-trips; map keys
// marshal sorted).
type ResultBody struct {
	Kind        string            `json:"kind"`
	Seeds       []int64           `json:"seeds"`
	RandomTries int               `json:"random_tries,omitempty"`
	Table2      *exp.SweepResult  `json:"table2,omitempty"`
	Table3      *exp.Sweep3Result `json:"table3,omitempty"`
	// Summary is the harness's human-readable rendering of the result.
	Summary string `json:"summary"`
}

// Reduce decodes the per-unit results (results[i] is unit i's canonical
// JSON) and aggregates them in strict index order into the final body.
// Both computation paths — local and forwarded — serialize units through
// the same RunUnit, so reducing from the decoded forms loses nothing.
func (sp *Spec) Reduce(results []json.RawMessage) ([]byte, error) {
	if len(results) != len(sp.Seeds) {
		return nil, fmt.Errorf("sweep: %d unit results for %d units", len(results), len(sp.Seeds))
	}
	body := ResultBody{Kind: string(sp.Kind), Seeds: sp.Seeds, RandomTries: sp.RandomTries}
	switch sp.Kind {
	case KindTable2:
		rs := make([]*exp.Table2Result, len(results))
		for i, raw := range results {
			rs[i] = new(exp.Table2Result)
			if err := json.Unmarshal(raw, rs[i]); err != nil {
				return nil, fmt.Errorf("sweep: decoding unit %d result: %w", i, err)
			}
		}
		body.Table2 = exp.ReduceSweep2(sp.Seeds, rs)
		body.Summary = body.Table2.Format()
	case KindTable3:
		rs := make([]*exp.Table3Result, len(results))
		for i, raw := range results {
			rs[i] = new(exp.Table3Result)
			if err := json.Unmarshal(raw, rs[i]); err != nil {
				return nil, fmt.Errorf("sweep: decoding unit %d result: %w", i, err)
			}
		}
		body.Table3 = exp.ReduceSweep3(sp.Seeds, rs)
		body.Summary = body.Table3.Format()
	default:
		return nil, fmt.Errorf("sweep: unknown kind %q", sp.Kind)
	}
	out, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ShardRequest is the JSON body of the internal POST /sweeps/shard hop: a
// canonical sweep spec plus the unit indices the receiving node should
// execute. The full seed list rides along so unit keys and results mean
// the same thing on both ends.
type ShardRequest struct {
	Spec  Request `json:"spec"`
	Units []int   `json:"units"`
}

// ShardResponse carries the executed units' canonical JSON results, in
// the order the request listed the units.
type ShardResponse struct {
	Results []json.RawMessage `json:"results"`
}
