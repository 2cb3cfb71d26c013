// Package session implements GridMind's structured cross-agent state
// (§3.3–3.4): the active network with its incremental diff log, validated
// numerical artifacts (latest ACOPF solution, base power flow,
// contingency sweeps), a composite-key contingency cache, provenance
// records, and JSON persistence for seamless resumption.
//
// Agents never exchange prose-only results: the ACOPF agent deposits a
// typed Solution here, and the CA agent checks artifact freshness against
// the diff log before deciding whether it can reuse the base point.
package session

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/model"
	"gridmind/internal/opf"
	"gridmind/internal/powerflow"
)

// ModKind enumerates supported network modifications.
type ModKind string

// Modification kinds recorded in the diff log.
const (
	ModSetLoad       ModKind = "set_load"       // set bus load to P/Q MW
	ModScaleLoad     ModKind = "scale_load"     // scale all loads by Factor
	ModOutageBranch  ModKind = "outage_branch"  // take branch out of service
	ModRestoreBranch ModKind = "restore_branch" // return branch to service
	ModSetGenP       ModKind = "set_gen_p"      // set generator dispatch target
)

// Modification is one entry of the chronological diff log. Every what-if
// edit is recorded rather than applied destructively, so any network
// state can be reconstructed by replay.
type Modification struct {
	Seq    int     `json:"seq"`
	Kind   ModKind `json:"kind"`
	BusID  int     `json:"bus_id,omitempty"`
	Branch int     `json:"branch,omitempty"`
	Gen    int     `json:"gen,omitempty"`
	PMW    float64 `json:"p_mw,omitempty"`
	QMVAr  float64 `json:"q_mvar,omitempty"`
	Factor float64 `json:"factor,omitempty"`
	// Note is the human-readable description echoed in narratives.
	Note string    `json:"note,omitempty"`
	At   time.Time `json:"at"`
}

// Provenance is one audit-trail record: which tool produced which
// artifact under which state.
type Provenance struct {
	Tool     string    `json:"tool"`
	DiffHash string    `json:"diff_hash"`
	Detail   string    `json:"detail,omitempty"`
	At       time.Time `json:"at"`
}

// Artifact wraps a stored result with the diff version it was computed
// at, so consumers can check freshness, and the time the session stored
// it, read from the session's clock (the solvers never read one).
type Artifact[T any] struct {
	Value    T         `json:"value"`
	DiffHash string    `json:"diff_hash"`
	Version  int       `json:"version"`
	At       time.Time `json:"at,omitzero"`
}

// Context is the shared, versioned session state (the paper's
// AgentContext). All methods are safe for concurrent agents.
type Context struct {
	mu sync.Mutex

	caseName string
	pristine *model.Network
	diffs    []Modification

	// netMemo is the snapshot cache: the network replayed at the current
	// diff state, built at most once per state. Invalidated whenever the
	// diff log or the case changes. netHits/netReplays instrument it.
	netMemo    *model.Network
	netHits    int64
	netReplays int64

	acopf   *Artifact[*opf.Solution]
	basePF  *Artifact[*powerflow.Result]
	caSweep *Artifact[*contingency.ResultSet]

	contCache  *contingency.Cache
	provenance []Provenance
	now        func() time.Time

	// eng, when non-nil, is the shared compiled-artifact store: pristine
	// cases come from it (one immutable copy per process) and tools route
	// Ybus/PTDF/KKT-pattern requests through it.
	eng *engine.Engine
}

// NewWithEngine returns an empty session context bound to a shared
// artifact engine. nowFn supplies timestamps (pass nil for time.Now;
// experiments inject the simulated clock). A nil engine rebuilds every
// expensive artifact per session.
func NewWithEngine(nowFn func() time.Time, eng *engine.Engine) *Context {
	if nowFn == nil {
		nowFn = time.Now
	}
	return &Context{contCache: contingency.NewCache(), now: nowFn, eng: eng}
}

// Engine returns the session's shared artifact engine (nil when unbound).
func (c *Context) Engine() *engine.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng
}

// AttachEngine binds a restored or legacy session to a shared artifact
// engine. Attaching never changes session state; it only lets future tool
// calls share compiled artifacts.
func (c *Context) AttachEngine(eng *engine.Engine) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.eng = eng
}

// ErrNoCase reports that no network has been loaded yet.
var ErrNoCase = errors.New("session: no case loaded")

// LoadCase loads a named IEEE case, resetting diffs and artifacts. With an
// engine attached the pristine network is the engine's shared immutable
// copy (loaded once per process); replay always clones before mutating, so
// sharing is safe. The returned network is the caller's own copy.
func (c *Context) LoadCase(name string) (*model.Network, error) {
	c.mu.Lock()
	eng := c.eng
	c.mu.Unlock()
	var n *model.Network
	var err error
	if eng != nil {
		n, err = eng.Pristine(name)
	} else {
		n, err = cases.Load(name)
	}
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.caseName = n.Name
	c.pristine = n
	c.diffs = nil
	c.netMemo = nil
	c.acopf, c.basePF, c.caSweep = nil, nil, nil
	c.contCache.Invalidate()
	c.addProvenanceLocked("load_case", n.Name)
	return n.Clone(), nil
}

// CaseName returns the active case name ("" when none).
func (c *Context) CaseName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.caseName
}

// Network returns the current network state: pristine case plus the
// replayed diff log. The result is the session's shared state snapshot,
// memoized per diff state — repeated calls on an unchanged diff log
// perform ZERO clones and zero replays. Callers must treat it as
// read-only (every solver in the repo does; what-if edits go through
// Apply, never through mutation). A session with no diffs returns the
// shared pristine network itself.
func (c *Context) Network() (*model.Network, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.networkLocked()
}

func (c *Context) networkLocked() (*model.Network, error) {
	if c.pristine == nil {
		return nil, ErrNoCase
	}
	if len(c.diffs) == 0 {
		c.netHits++
		return c.pristine, nil
	}
	if c.netMemo != nil {
		c.netHits++
		return c.netMemo, nil
	}
	c.netReplays++
	n := c.pristine.Clone()
	for _, m := range c.diffs {
		if err := apply(n, m); err != nil {
			return nil, fmt.Errorf("session: replaying diff %d: %w", m.Seq, err)
		}
	}
	c.netMemo = n
	return n, nil
}

// DropSnapshot discards the memoized network snapshot, forcing the next
// Network() call to replay the diff log. Benchmarks use it to price the
// replay path the snapshot cache avoids; production callers never need it.
func (c *Context) DropSnapshot() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.netMemo = nil
}

// NetworkStats reports the snapshot cache's hit/replay counters.
func (c *Context) NetworkStats() (hits, replays int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.netHits, c.netReplays
}

// apply executes one modification on a network.
func apply(n *model.Network, m Modification) error {
	switch m.Kind {
	case ModSetLoad:
		i := n.BusByID(m.BusID)
		if i < 0 {
			return fmt.Errorf("unknown bus %d", m.BusID)
		}
		// Replace aggregate demand at the bus with the new values.
		kept := n.Loads[:0]
		for _, l := range n.Loads {
			if l.Bus != i {
				kept = append(kept, l)
			}
		}
		n.Loads = kept
		n.Loads = append(n.Loads, model.Load{Bus: i, P: m.PMW, Q: m.QMVAr, InService: true})
		return nil
	case ModScaleLoad:
		if m.Factor <= 0 {
			return fmt.Errorf("scale factor %v must be positive", m.Factor)
		}
		for i := range n.Loads {
			n.Loads[i].P *= m.Factor
			n.Loads[i].Q *= m.Factor
		}
		return nil
	case ModOutageBranch:
		if m.Branch < 0 || m.Branch >= len(n.Branches) {
			return fmt.Errorf("branch %d out of range", m.Branch)
		}
		n.Branches[m.Branch].InService = false
		return nil
	case ModRestoreBranch:
		if m.Branch < 0 || m.Branch >= len(n.Branches) {
			return fmt.Errorf("branch %d out of range", m.Branch)
		}
		n.Branches[m.Branch].InService = true
		return nil
	case ModSetGenP:
		if m.Gen < 0 || m.Gen >= len(n.Gens) {
			return fmt.Errorf("generator %d out of range", m.Gen)
		}
		n.Gens[m.Gen].P = m.PMW
		return nil
	default:
		return fmt.Errorf("unknown modification kind %q", m.Kind)
	}
}

// Apply validates and appends a modification to the diff log. Artifacts
// become stale automatically (their recorded diff hash no longer
// matches); the contingency cache keys include the hash so stale entries
// simply never hit.
func (c *Context) Apply(m Modification) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pristine == nil {
		return ErrNoCase
	}
	m.Seq = len(c.diffs) + 1
	m.At = c.now()
	// Dry-run the full replay including the new diff; reject on error.
	trial := append(append([]Modification(nil), c.diffs...), m)
	n := c.pristine.Clone()
	for _, d := range trial {
		if err := apply(n, d); err != nil {
			return err
		}
	}
	if err := n.Validate(); err != nil {
		return fmt.Errorf("session: modification leaves invalid network: %w", err)
	}
	c.diffs = trial
	// The dry run just replayed the new state in full; keep it as the
	// snapshot, so the tool call that triggered the modification pays no
	// second replay.
	c.netMemo = n
	c.addProvenanceLocked("apply_modification", string(m.Kind)+": "+m.Note)
	return nil
}

// Diffs returns a copy of the diff log.
func (c *Context) Diffs() []Modification {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Modification(nil), c.diffs...)
}

// DiffHash returns the composite state hash (case + canonical diff log),
// the §3.4 cache key component.
func (c *Context) DiffHash() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.diffHashLocked()
}

func (c *Context) diffHashLocked() string {
	h := sha256.New()
	h.Write([]byte(c.caseName))
	var b []byte
	for _, m := range c.diffs {
		// Timestamps are excluded: the hash captures state, not history.
		// A value that its %.6f text does not round-trip adds its bits.
		b = fmt.Appendf(b[:0], "|%s:%d:%d:%d", m.Kind, m.BusID, m.Branch, m.Gen)
		for _, v := range [...]float64{m.PMW, m.QMVAr, m.Factor} {
			i := len(b) + 1
			b = strconv.AppendFloat(append(b, ':'), v, 'f', 6, 64)
			if p, _ := strconv.ParseFloat(string(b[i:]), 64); p != v {
				b = strconv.AppendUint(append(b, '~'), math.Float64bits(v), 16)
			}
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Version returns the diff-log length, a monotone state version.
func (c *Context) Version() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.diffs)
}

// SetACOPF stores the latest ACOPF solution stamped with the current
// state hash and the session clock's time.
func (c *Context) SetACOPF(sol *opf.Solution) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acopf = &Artifact[*opf.Solution]{Value: sol, DiffHash: c.diffHashLocked(), Version: len(c.diffs), At: c.now()}
	c.addProvenanceLocked("store_acopf", fmt.Sprintf("cost=%.2f solved=%t", sol.ObjectiveCost, sol.Solved))
}

// ACOPF returns the stored solution and whether it is fresh (computed at
// the current network state).
func (c *Context) ACOPF() (sol *opf.Solution, fresh bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acopf == nil {
		return nil, false
	}
	return c.acopf.Value, c.acopf.DiffHash == c.diffHashLocked()
}

// ACOPFSolvedAt returns the session-clock time SetACOPF stored the
// current solution at: zero when there is none, or when it was restored
// from an envelope that predates the stamp.
func (c *Context) ACOPFSolvedAt() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acopf == nil {
		return time.Time{}
	}
	return c.acopf.At
}

// SetBasePF stores the contingency base-case power flow.
func (c *Context) SetBasePF(res *powerflow.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.basePF = &Artifact[*powerflow.Result]{Value: res, DiffHash: c.diffHashLocked(), Version: len(c.diffs), At: c.now()}
	c.addProvenanceLocked("store_base_pf", fmt.Sprintf("converged=%t", res.Converged))
}

// BasePF returns the stored base power flow and its freshness.
func (c *Context) BasePF() (*powerflow.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.basePF == nil {
		return nil, false
	}
	return c.basePF.Value, c.basePF.DiffHash == c.diffHashLocked()
}

// SetCASweep stores the latest contingency sweep.
func (c *Context) SetCASweep(rs *contingency.ResultSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.caSweep = &Artifact[*contingency.ResultSet]{Value: rs, DiffHash: c.diffHashLocked(), Version: len(c.diffs), At: c.now()}
	c.addProvenanceLocked("store_ca_sweep", fmt.Sprintf("outages=%d", len(rs.Outages)))
}

// CASweep returns the stored sweep and its freshness.
func (c *Context) CASweep() (*contingency.ResultSet, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.caSweep == nil {
		return nil, false
	}
	return c.caSweep.Value, c.caSweep.DiffHash == c.diffHashLocked()
}

// ContCache exposes the shared contingency cache.
func (c *Context) ContCache() *contingency.Cache { return c.contCache }

// AddProvenance appends an audit-trail record.
func (c *Context) AddProvenance(tool, detail string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addProvenanceLocked(tool, detail)
}

func (c *Context) addProvenanceLocked(tool, detail string) {
	c.provenance = append(c.provenance, Provenance{
		Tool: tool, DiffHash: c.diffHashLocked(), Detail: detail, At: c.now(),
	})
}

// Provenance returns a copy of the audit trail.
func (c *Context) Provenance() []Provenance {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Provenance(nil), c.provenance...)
}

// persisted is the serialized session format.
type persisted struct {
	CaseName   string                            `json:"case_name"`
	Diffs      []Modification                    `json:"diffs"`
	ACOPF      *Artifact[*opf.Solution]          `json:"acopf,omitempty"`
	CASweep    *Artifact[*contingency.ResultSet] `json:"ca_sweep,omitempty"`
	Provenance []Provenance                      `json:"provenance"`
	SavedAt    time.Time                         `json:"saved_at"`
}

// Persist serializes the session (baseline reference, diffs, artifacts,
// provenance) for seamless resumption. The base power flow is
// recomputable and not stored.
func (c *Context) Persist(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := persisted{
		CaseName:   c.caseName,
		Diffs:      c.diffs,
		ACOPF:      c.acopf,
		CASweep:    c.caSweep,
		Provenance: c.provenance,
		SavedAt:    c.now(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// RestoreWithEngine loads a persisted session, reconstructing the
// pristine case from the embedded library and replaying the diff log, and
// binds the shared artifact engine eng (nil for none) to it.
func RestoreWithEngine(r io.Reader, nowFn func() time.Time, eng *engine.Engine) (*Context, error) {
	var p persisted
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("session: restore: %w", err)
	}
	c := NewWithEngine(nowFn, eng)
	if p.CaseName != "" {
		if _, err := c.LoadCase(p.CaseName); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.diffs = p.Diffs
	c.netMemo = nil
	c.acopf = p.ACOPF
	c.caSweep = p.CASweep
	c.provenance = p.Provenance
	// Validate the replayed state before declaring the session usable.
	if c.pristine != nil {
		if _, err := c.networkLocked(); err != nil {
			return nil, err
		}
	}
	return c, nil
}
