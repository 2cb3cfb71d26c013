// Package engine is the process-wide compiled-artifact store behind
// GridMind's multi-session serving path. The expensive per-case immutables
// — loaded pristine networks, admittance matrices, prebuilt topologies,
// PTDF/LODF factor matrices, fill-reducing orderings, compiled interior-
// point KKT patterns and the contingency sweep's reusable solve contexts —
// depend only on a network's STRUCTURE (case + branch parameters/statuses
// + generator statuses), never on loads or dispatch. One Engine therefore
// lets N concurrent sessions on the same case share one compilation
// instead of paying for N.
//
// The store is keyed by structural signature (see StructSig); everything
// handed out is either immutable and safe to share concurrently (networks,
// Ybus, Topology, PTDF, ordering caches) or pooled with checkout/checkin
// semantics for the single-goroutine artifacts (opf.Context, contingency
// sweep contexts). See README.md for the exact invalidation contract.
package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/obs"
	"gridmind/internal/opf"
	"gridmind/internal/pool"
	"gridmind/internal/powerflow"
	"gridmind/internal/ptdf"
	"gridmind/internal/scenario"
)

// Engine is a concurrency-safe, process-wide artifact store. The zero
// value is not usable; create with New (or use the package Default).
type Engine struct {
	mu       sync.Mutex
	pristine map[string]*model.Network
	structs  map[string]*Artifacts
	opfFree  *pool.Keyed[string, *opf.Context]
	sweeps   map[string]*contingency.SweepPool
	scn      map[string]*scenario.Pool
	basePF   map[string]*basePFEntry

	// maxSweepStates bounds the sweep-pool map: pools are keyed by full
	// session state (case + diff hash), which is unbounded under what-if
	// traffic; structural artifacts are bounded by topology count and are
	// never evicted.
	maxSweepStates int

	met   *obs.Registry
	stats engineStats
}

// engineStats are the process-wide reuse counters, published on the
// engine's obs registry; Stats() is a read view over the same handles.
type engineStats struct {
	pristineHits, pristineMisses *obs.Counter
	structHits, structMisses     *obs.Counter
	ybusBuilds                   *obs.Counter
	topoBuilds                   *obs.Counter
	ptdfBuilds                   *obs.Counter
	opfReuses, opfCreates        *obs.Counter
	kktRefactors, kktRepivots    *obs.Counter
	sweepPoolHits, sweepPoolNew  *obs.Counter
	scnPoolHits, scnPoolNew      *obs.Counter
	basePFHits, basePFSolves     *obs.Counter

	storeHits, storeMisses *obs.Counter
	storeErrors            *obs.Counter
	storeSaves             *obs.Counter
}

func newEngineStats(met *obs.Registry) engineStats {
	lookup := func(name, help, result string) *obs.Counter {
		return met.Counter(name, help, "result", result)
	}
	return engineStats{
		pristineHits:   lookup("gridmind_engine_pristine_lookups_total", "Case-library lookups by result (hit = served from store, miss = loaded fresh).", "hit"),
		pristineMisses: lookup("gridmind_engine_pristine_lookups_total", "", "miss"),
		structHits:     lookup("gridmind_engine_struct_lookups_total", "Structural-signature lookups by result (hit = existing artifact set).", "hit"),
		structMisses:   lookup("gridmind_engine_struct_lookups_total", "", "miss"),
		ybusBuilds:     met.Counter("gridmind_engine_ybus_builds_total", "Admittance matrices actually constructed."),
		topoBuilds:     met.Counter("gridmind_engine_topology_builds_total", "Topology adjacencies actually constructed."),
		ptdfBuilds:     met.Counter("gridmind_engine_ptdf_builds_total", "PTDF factor matrices actually constructed."),
		opfReuses:      lookup("gridmind_engine_opf_context_checkouts_total", "KKT solver-context checkouts by result (reuse = from pool, create = fresh compile).", "reuse"),
		opfCreates:     lookup("gridmind_engine_opf_context_checkouts_total", "", "create"),
		kktRefactors:   met.Counter("gridmind_opf_kkt_factorizations_total", "KKT factorizations of pooled interior-point contexts by kind (refactor = frozen pivots reused, repivot = fresh row pivots after a frozen one went unstable).", "kind", "refactor"),
		kktRepivots:    met.Counter("gridmind_opf_kkt_factorizations_total", "", "kind", "repivot"),
		sweepPoolHits:  lookup("gridmind_engine_sweep_pool_lookups_total", "Contingency sweep-pool lookups by session state.", "hit"),
		sweepPoolNew:   lookup("gridmind_engine_sweep_pool_lookups_total", "", "new"),
		scnPoolHits:    lookup("gridmind_engine_scenario_pool_lookups_total", "Scenario worker-pool lookups by session state.", "hit"),
		scnPoolNew:     lookup("gridmind_engine_scenario_pool_lookups_total", "", "new"),
		basePFHits:     lookup("gridmind_engine_base_pf_total", "Base power-flow requests by result (hit = memoized, solve = computed).", "hit"),
		basePFSolves:   lookup("gridmind_engine_base_pf_total", "", "solve"),
		storeHits:      lookup("gridmind_engine_artifact_store_loads_total", "Persistent artifact-store loads by result (hit = warmed from disk, miss = no entry, error = corrupt/version-skewed entry).", "hit"),
		storeMisses:    lookup("gridmind_engine_artifact_store_loads_total", "", "miss"),
		storeErrors:    lookup("gridmind_engine_artifact_store_loads_total", "", "error"),
		storeSaves:     met.Counter("gridmind_engine_artifact_store_saves_total", "Structural artifact sets persisted to the store."),
	}
}

// Stats is a point-in-time snapshot of the engine's reuse counters.
type Stats struct {
	// PristineHits/Misses count case-library lookups served from the store
	// vs. loaded (parsed or generated) fresh.
	PristineHits, PristineMisses int64
	// StructHits/Misses count structural-signature lookups that found an
	// existing artifact set vs. installed a new one.
	StructHits, StructMisses int64
	// YbusBuilds/TopoBuilds/PTDFBuilds count the expensive constructions
	// actually performed; a second session on a shared structure adds zero.
	YbusBuilds, TopoBuilds, PTDFBuilds int64
	// OPFReuses/OPFCreates count KKT solver contexts checked out of the
	// pool vs. created fresh (each fresh context compiles its pattern on
	// first solve).
	OPFReuses, OPFCreates int64
	// SweepPoolHits/SweepPoolNew count sweep-pool lookups by session state.
	SweepPoolHits, SweepPoolNew int64
	// ScenarioPoolHits/ScenarioPoolNew count scenario-pool lookups by
	// session state (cascade / episode / Monte Carlo worker contexts).
	ScenarioPoolHits, ScenarioPoolNew int64
	// BasePFHits/BasePFSolves count base power flows served from the
	// state-keyed memo vs. actually solved.
	BasePFHits, BasePFSolves int64
	// StoreHits/StoreMisses/StoreErrors count persistent artifact-store
	// loads by outcome; StoreSaves counts artifact sets persisted. A
	// store-warmed worker shows one StoreHit and zero Ybus/Topo/PTDF
	// builds for the warmed structure.
	StoreHits, StoreMisses, StoreErrors, StoreSaves int64
}

// New returns an empty engine publishing its counters on a fresh private
// obs registry (so exact-counter tests stay isolated). Use NewWithMetrics
// to publish on a shared registry instead.
func New() *Engine { return NewWithMetrics(obs.NewRegistry()) }

// NewWithMetrics returns an empty engine whose reuse counters are
// registered on met. A nil met selects a fresh private registry.
func NewWithMetrics(met *obs.Registry) *Engine {
	if met == nil {
		met = obs.NewRegistry()
	}
	return &Engine{
		pristine:       make(map[string]*model.Network),
		structs:        make(map[string]*Artifacts),
		opfFree:        pool.NewKeyed[string, *opf.Context](0),
		sweeps:         make(map[string]*contingency.SweepPool),
		scn:            make(map[string]*scenario.Pool),
		basePF:         make(map[string]*basePFEntry),
		maxSweepStates: 64,
		met:            met,
		stats:          newEngineStats(met),
	}
}

var defaultEngine = NewWithMetrics(obs.Default())

// Default returns the shared process-wide engine. Sessions created without
// an explicit engine share it, so independent gridmind.New calls in one
// process still converge on one artifact set per case. Its counters
// publish on obs.Default().
func Default() *Engine { return defaultEngine }

// Metrics returns the obs registry the engine publishes its counters on.
// The serving stack threads this single registry through the gateway,
// session manager, and every session so one scrape sees the whole process.
func (e *Engine) Metrics() *obs.Registry { return e.met }

// Stats snapshots the reuse counters. It is a read view over the obs
// registry instruments — the same values a /metrics scrape reports.
func (e *Engine) Stats() Stats {
	return Stats{
		PristineHits:     e.stats.pristineHits.Value(),
		PristineMisses:   e.stats.pristineMisses.Value(),
		StructHits:       e.stats.structHits.Value(),
		StructMisses:     e.stats.structMisses.Value(),
		YbusBuilds:       e.stats.ybusBuilds.Value(),
		TopoBuilds:       e.stats.topoBuilds.Value(),
		PTDFBuilds:       e.stats.ptdfBuilds.Value(),
		OPFReuses:        e.stats.opfReuses.Value(),
		OPFCreates:       e.stats.opfCreates.Value(),
		SweepPoolHits:    e.stats.sweepPoolHits.Value(),
		SweepPoolNew:     e.stats.sweepPoolNew.Value(),
		ScenarioPoolHits: e.stats.scnPoolHits.Value(),
		ScenarioPoolNew:  e.stats.scnPoolNew.Value(),
		BasePFHits:       e.stats.basePFHits.Value(),
		BasePFSolves:     e.stats.basePFSolves.Value(),
		StoreHits:        e.stats.storeHits.Value(),
		StoreMisses:      e.stats.storeMisses.Value(),
		StoreErrors:      e.stats.storeErrors.Value(),
		StoreSaves:       e.stats.storeSaves.Value(),
	}
}

// Pristine returns the shared immutable pristine network for a case name.
// Callers must treat the result as read-only; session replay clones it
// before applying modifications.
func (e *Engine) Pristine(name string) (*model.Network, error) {
	canonical := cases.Canonical(name)
	if canonical == "" {
		canonical = name // let cases.Load produce the error
	}
	e.mu.Lock()
	if n, ok := e.pristine[canonical]; ok {
		e.mu.Unlock()
		e.stats.pristineHits.Add(1)
		return n, nil
	}
	e.mu.Unlock()
	// Load outside the lock: synthetic cases solve a power flow during
	// generation, which must not serialize unrelated engine traffic.
	n, err := cases.Load(canonical)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prior, ok := e.pristine[canonical]; ok {
		e.stats.pristineHits.Add(1)
		return prior, nil // racing loader won; share its copy
	}
	e.stats.pristineMisses.Add(1)
	e.pristine[canonical] = n
	return n, nil
}

// StructSig computes the structural signature of a network: case identity,
// branch parameters and statuses, generator placements and statuses. Loads
// and generator dispatch are deliberately excluded — they do not change any
// artifact the engine stores — so a load or dispatch modification maps to
// the SAME signature (artifacts survive), while a branch outage/restore or
// a generator status change maps to a new one (artifacts recompile). This
// mirrors opf.Context's own signature rules.
func StructSig(n *model.Network) string {
	h := sha256.New()
	var buf [8]byte
	wInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	h.Write([]byte(n.Name))
	wInt(len(n.Buses))
	wInt(len(n.Branches))
	wInt(len(n.Gens))
	wF(n.BaseMVA)
	for i := range n.Buses {
		b := &n.Buses[i]
		wInt(int(b.Type))
		wF(b.GS)
		wF(b.BS)
	}
	for i := range n.Branches {
		br := &n.Branches[i]
		wInt(br.From)
		wInt(br.To)
		wF(br.R)
		wF(br.X)
		wF(br.B)
		wF(br.Tap)
		wF(br.Shift)
		if br.InService {
			wInt(1)
		} else {
			wInt(0)
		}
	}
	for i := range n.Gens {
		g := &n.Gens[i]
		wInt(g.Bus)
		if g.InService {
			wInt(1)
		} else {
			wInt(0)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Artifacts is the immutable artifact set of one network structure. All
// getters are safe for concurrent use; each artifact is built at most once
// per structure, on first demand, from the template network captured when
// the structure was first seen (loads on the template are irrelevant — no
// stored artifact reads them).
type Artifacts struct {
	// Sig is the structural signature the set is keyed by.
	Sig string

	eng      *Engine
	template *model.Network

	ybusOnce sync.Once
	ybus     *model.Ybus

	topoOnce sync.Once
	topo     *model.Topology

	ptdfOnce sync.Once
	ptdf     *ptdf.Matrix
	ptdfErr  error

	reorder *powerflow.OrderingCache
}

// Artifacts returns the shared artifact set for n's structure, installing
// an empty one on first sight. The individual artifacts build lazily.
func (e *Engine) Artifacts(n *model.Network) *Artifacts {
	sig := StructSig(n)
	e.mu.Lock()
	defer e.mu.Unlock()
	if a, ok := e.structs[sig]; ok {
		e.stats.structHits.Add(1)
		return a
	}
	e.stats.structMisses.Add(1)
	a := &Artifacts{Sig: sig, eng: e, template: n, reorder: powerflow.NewOrderingCache()}
	e.structs[sig] = a
	return a
}

// Ybus returns the shared base admittance matrix. It is value-immutable by
// contract: sweep workers value-copy it (Ybus.Copy) before patching.
func (a *Artifacts) Ybus() *model.Ybus {
	a.ybusOnce.Do(func() {
		a.ybus = model.BuildYbus(a.template)
		a.eng.stats.ybusBuilds.Add(1)
	})
	return a.ybus
}

// Topology returns the shared prebuilt adjacency. Island queries write
// into caller-provided buffers, so one Topology serves all workers.
func (a *Artifacts) Topology() *model.Topology {
	a.topoOnce.Do(func() {
		a.topo = model.NewTopology(a.template)
		a.eng.stats.topoBuilds.Add(1)
	})
	return a.topo
}

// PTDF returns the shared distribution-factor matrix with its lazy LODF
// memo (itself concurrency-safe), building it on first demand. The build
// error (e.g. no slack) is memoized alongside.
func (a *Artifacts) PTDF() (*ptdf.Matrix, error) {
	a.ptdfOnce.Do(func() {
		a.ptdf, a.ptdfErr = ptdf.Build(a.template)
		a.eng.stats.ptdfBuilds.Add(1)
	})
	return a.ptdf, a.ptdfErr
}

// Ordering returns the structure's shared fill-reducing ordering cache.
func (a *Artifacts) Ordering() *powerflow.OrderingCache { return a.reorder }

// AcquireOPF checks a reusable interior-point solver context out of the
// structure's pool, creating one when the pool is empty. opf.Context is
// not safe for concurrent use, hence checkout/checkin; a context carries
// the compiled KKT pattern + LU symbolic analysis, so a checked-out reuse
// skips pattern compilation entirely. Return it with ReleaseOPF. Contexts
// self-verify their structural signature, so a stale checkin (topology
// changed between checkout and checkin) degrades to a recompile, never to
// a wrong result.
func (e *Engine) AcquireOPF(sig string) *opf.Context {
	created := false
	c := e.opfFree.Get(sig, func() *opf.Context { created = true; return opf.NewContext() })
	tally(!created, e.stats.opfReuses, e.stats.opfCreates)
	return c
}

// ReleaseOPF returns a context to the structure's pool, publishing the KKT
// refactorizations and repivots it ran while checked out.
func (e *Engine) ReleaseOPF(sig string, c *opf.Context) {
	if c != nil {
		refactors, repivots := c.TakeFactorizations()
		e.stats.kktRefactors.Add(int64(refactors))
		e.stats.kktRepivots.Add(int64(repivots))
		e.opfFree.Put(sig, c)
	}
}

// basePFEntry memoizes one state's base power flow; the Once collapses
// concurrent first solves of the same state into one.
type basePFEntry struct {
	once sync.Once
	res  *powerflow.Result
	err  error
}

// BasePF returns the converged pre-contingency power flow for a session
// state, solving it at most once per state key across all sessions (the
// solve is deterministic, so any session's network at that state yields
// the same result). The result is shared read-only. stateKey must be the
// session's composite case+diff hash; n must be the network at exactly
// that state. The memo is bounded like the sweep-pool map.
func (e *Engine) BasePF(stateKey string, n *model.Network) (*powerflow.Result, error) {
	e.mu.Lock()
	ent, _ := stateEntry(e.basePF, stateKey, e.maxSweepStates, func() *basePFEntry { return &basePFEntry{} })
	e.mu.Unlock()
	hit := true
	ent.once.Do(func() {
		hit = false
		e.stats.basePFSolves.Add(1)
		ent.res, ent.err = powerflow.Solve(n, powerflow.Options{
			EnforceQLimits: true,
			Reorder:        e.Artifacts(n).Ordering(),
		})
	})
	if hit {
		e.stats.basePFHits.Add(1)
	}
	return ent.res, ent.err
}

// stateEntry returns m[key], installing build() on first sight. State keys
// hash session diff logs — unbounded under what-if traffic, with no cheap
// recency order worth maintaining — so at limit entries the map is reset
// wholesale before the install; a dropped entry only costs recomputation.
// The caller holds e.mu.
func stateEntry[V any](m map[string]V, key string, limit int, build func() V) (v V, hit bool) {
	if v, ok := m[key]; ok {
		return v, true
	}
	if len(m) >= limit {
		clear(m)
	}
	v = build()
	m[key] = v
	return v, false
}

// tally bumps hit when ok and miss otherwise: the two-valued result label
// of the engine's lookup counters.
func tally(ok bool, hit, miss *obs.Counter) {
	if ok {
		hit.Add(1)
	} else {
		miss.Add(1)
	}
}

// SweepPool returns the contingency worker-context pool for one session
// STATE (case + diff hash — loads matter here, because a sweep context's
// compiled classification embeds them). Sessions at the same state share
// one pool, so repeated or concurrent sweeps reuse compiled Newton
// patterns and LU symbolic analyses instead of rebuilding per call. The
// state map is bounded by a wholesale reset at the cap (see stateEntry).
func (e *Engine) SweepPool(stateKey string) *contingency.SweepPool {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, hit := stateEntry(e.sweeps, stateKey, e.maxSweepStates, contingency.NewSweepPool)
	tally(hit, e.stats.sweepPoolHits, e.stats.sweepPoolNew)
	return p
}

// ScenarioPool returns the scenario worker-context pool (cascade /
// episode / Monte Carlo) for one session state, with the same keying,
// sharing and bounded-map semantics as SweepPool.
func (e *Engine) ScenarioPool(stateKey string) *scenario.Pool {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, hit := stateEntry(e.scn, stateKey, e.maxSweepStates, scenario.NewPool)
	tally(hit, e.stats.scnPoolHits, e.stats.scnPoolNew)
	return p
}
