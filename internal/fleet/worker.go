package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/model"
	"gridmind/internal/obs"
)

// memoCap bounds the idempotency memo. Retries arrive seconds after the
// original, so only recent shards matter; beyond the cap the oldest keys
// are dropped and a very late duplicate simply recomputes (same bytes —
// the sweep is deterministic).
const memoCap = 512

// maxShardBody caps a /shard request body, the same 16 MiB the LLM
// handler reads; a case3000 shard of every branch is well under 1 MiB.
const maxShardBody = 16 << 20

// Worker executes shard requests against a local engine. One Worker
// serves many sweeps concurrently; every shard runs the engine-threaded
// fast path (shared Ybus/topology/PTDF, shared ordering cache, pooled
// Newton contexts), so the first shard of a case pays the compiles — or
// none at all when an artifact store is mounted and already holds the
// structure — and every later shard is pure solve work.
type Worker struct {
	id    string
	eng   *engine.Engine
	store *engine.Store

	shardsOK  *obs.Counter
	shardsErr *obs.Counter
	shardsDup *obs.Counter
	shardLat  *obs.Histogram

	mu     sync.Mutex
	memo   map[string][]byte // idempotency key -> marshaled response
	order  []string          // memo insertion order, for capped eviction
	warmed map[string]warmState
}

// warmState records the store interaction for one case: whether WarmFrom
// hit, and whether this worker has persisted the artifacts back.
type warmState struct {
	hit   bool
	saved bool
}

// NewWorker wraps an engine as a fleet worker. store may be nil (the
// worker compiles cold); met may be nil (no fleet metrics recorded —
// engine metrics live on the engine's own registry regardless). id names
// the worker in responses and logs.
func NewWorker(id string, eng *engine.Engine, store *engine.Store, met *obs.Registry) *Worker {
	w := &Worker{
		id:     id,
		eng:    eng,
		store:  store,
		memo:   make(map[string][]byte),
		warmed: make(map[string]warmState),
	}
	if met != nil {
		const h = "Shard requests served by result (duplicate = idempotent memo replay)."
		w.shardsOK = met.Counter("gridmind_fleet_worker_shards_total", h, "result", "ok")
		w.shardsErr = met.Counter("gridmind_fleet_worker_shards_total", h, "result", "error")
		w.shardsDup = met.Counter("gridmind_fleet_worker_shards_total", h, "result", "duplicate")
		w.shardLat = met.Histogram("gridmind_fleet_worker_shard_seconds",
			"Wall-clock time to execute one shard (excludes memo replays).", nil)
	}
	return w
}

// Handler returns the worker's HTTP surface: POST /shard runs (or
// replays) a shard, GET /healthz answers readiness probes. A malformed
// request or an outage the case does not have answers 400.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shard", w.handleShard)
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(rw, "ok %s\n", w.id)
	})
	return mux
}

func (w *Worker) handleShard(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req ShardRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxShardBody)).Decode(&req); err != nil {
		w.count(w.shardsErr)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(rw, "bad shard request: "+err.Error(), status)
		return
	}
	if err := req.validate(); err != nil {
		w.count(w.shardsErr)
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}

	// Idempotent replay: a coordinator that timed out and retried gets
	// the exact bytes of the original response.
	if body, ok := w.replay(req.Key()); ok {
		w.count(w.shardsDup)
		writeJSONBytes(rw, body)
		return
	}

	start := time.Now()
	resp, err := w.runShard(&req)
	if err != nil {
		w.count(w.shardsErr)
		status := http.StatusInternalServerError
		if errors.Is(err, contingency.ErrInvalidOutage) {
			status = http.StatusBadRequest // the same outages fail on every retry
		}
		http.Error(rw, err.Error(), status)
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		w.count(w.shardsErr)
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	w.memoize(req.Key(), body)
	w.count(w.shardsOK)
	if w.shardLat != nil {
		w.shardLat.ObserveDuration(time.Since(start))
	}
	writeJSONBytes(rw, body)
}

func writeJSONBytes(rw http.ResponseWriter, body []byte) {
	rw.Header().Set("Content-Type", "application/json")
	rw.Write(body)
}

func (w *Worker) count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (w *Worker) replay(key string) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	body, ok := w.memo[key]
	return body, ok
}

func (w *Worker) memoize(key string, body []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.memo[key]; ok {
		return
	}
	for len(w.order) >= memoCap {
		delete(w.memo, w.order[0])
		w.order = w.order[1:]
	}
	w.memo[key] = body
	w.order = append(w.order, key)
}

// runShard executes one shard with the engine-threaded sweep path.
func (w *Worker) runShard(req *ShardRequest) (*ShardResponse, error) {
	n, err := w.eng.Pristine(req.Case)
	if err != nil {
		return nil, err
	}
	warmed := w.ensureWarm(req.Case, n)
	base, err := w.eng.BasePF(req.Case, n)
	if err != nil {
		return nil, fmt.Errorf("fleet: base power flow for %s: %w", req.Case, err)
	}

	opts := contingency.Options{DCScreen: req.Opts.DCScreen, Pool: w.eng.SweepPool(req.Case), Metrics: w.eng.Metrics()}

	var rs *contingency.ResultSet
	switch req.Kind {
	case KindN1:
		opts.Branches = req.Branches
		rs, err = contingency.Analyze(n, base, opts)
	case KindN2:
		rs, err = contingency.AnalyzeN2(n, base, nil, contingency.N2Options{
			Options: opts,
			Pairs:   req.Pairs,
		})
	default:
		err = fmt.Errorf("fleet: unknown sweep kind %q", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	w.maybeSave(req.Case, n)

	return &ShardResponse{
		Version:           ProtocolVersion,
		Key:               req.Key(),
		Worker:            w.id,
		CaseName:          rs.CaseName,
		Outages:           rs.Outages,
		Screened:          rs.Screened,
		BaseMaxLoadingPct: rs.BaseMaxLoadingPct,
		BaseMinVoltagePU:  rs.BaseMinVoltagePU,
		Warmed:            warmed,
	}, nil
}

// ensureWarm tries the artifact store once per case; later shards reuse
// the outcome. A corrupt or version-skewed entry is deliberately not an
// error here — the engine counted it on its registry and stayed cold, and
// compiling is the correct fallback.
func (w *Worker) ensureWarm(caseName string, n *model.Network) bool {
	if w.store == nil {
		return false
	}
	w.mu.Lock()
	st, tried := w.warmed[caseName]
	w.mu.Unlock()
	if tried {
		return st.hit
	}
	hit, _ := w.eng.WarmFrom(w.store, n)
	w.mu.Lock()
	if _, raced := w.warmed[caseName]; !raced {
		w.warmed[caseName] = warmState{hit: hit}
	}
	st = w.warmed[caseName]
	w.mu.Unlock()
	return st.hit
}

// maybeSave persists the case's artifacts after the first completed shard
// of a cold case, so the NEXT cold worker (or the next restart of this
// one) warms from disk. A warmed case is never re-saved: its store entry
// is already current for the signature.
func (w *Worker) maybeSave(caseName string, n *model.Network) {
	if w.store == nil {
		return
	}
	w.mu.Lock()
	st := w.warmed[caseName]
	done := st.hit || st.saved
	if !done {
		st.saved = true
		w.warmed[caseName] = st
	}
	w.mu.Unlock()
	if done {
		return
	}
	// Best-effort: a full store disk costs the next cold start a compile,
	// nothing else.
	_ = w.eng.SaveArtifacts(w.store, n)
}
