package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"gridmind"
	"gridmind/internal/obs"
)

// Session-manager errors, mapped to HTTP statuses by the handlers.
var (
	errSessionNotFound = errors.New("session not found (expired or never created)")
	errAtCapacity      = errors.New("session limit reached; retry after idle sessions expire")
	errQueueFull       = errors.New("session ask queue full; retry shortly")
)

// managedSession is one conversational session. Asks within a session are
// serialized by mu (the coordinator's shared context is a conversation,
// not a queue); distinct sessions run fully in parallel.
type managedSession struct {
	ID      string
	Model   string
	Created time.Time

	mu       sync.Mutex // serializes Ask within the session
	gm       *gridmind.GridMind
	lastUsed time.Time // guarded by the manager's lock
	asks     int64     // guarded by the manager's lock
	busy     int       // in-flight asks; guarded by the manager's lock
}

// sessionManager owns the session lifecycle: creation, id routing,
// admission, idle expiry, spill, restore and removal. One rule keeps it
// race-free: the live table, the spill directory and every session's
// busy/lastUsed/asks change only while mu is held. A session therefore
// lives in the table or in its spill file, never both, and is never
// spilled while an ask holds it.
type sessionManager struct {
	factory     func(model string) *gridmind.GridMind
	idleTTL     time.Duration
	maxSessions int
	// maxQueue bounds in-flight asks per session (in-flight = running plus
	// queued behind the session lock); 0 = unbounded. Without a bound, one
	// hot session accumulates goroutines without limit — each waiting ask
	// is a parked goroutine plus an open connection.
	maxQueue int
	// spillDir, when non-empty, turns idle expiry into spill-to-disk: the
	// janitor persists the session there instead of dropping it, and the
	// next touch of the id transparently restores it.
	spillDir string

	mu       sync.Mutex
	sessions map[string]*managedSession
	// def serves session-less asks (the single-tenant contract). It is
	// admitted like any other session but kept out of the table, so it
	// never expires, is never listed and never counts as live.
	def *managedSession
	now func() time.Time

	stop chan struct{}
	wg   sync.WaitGroup

	// Lifecycle instruments on the process registry.
	expired     *obs.Counter
	spills      *obs.Counter
	spillErrs   *obs.Counter
	restores    *obs.Counter
	restoreErrs *obs.Counter
	restoreLat  *obs.Histogram
}

// newSessionManager starts a manager, with a default session on defModel,
// and its idle-expiry janitor. met is the registry lifecycle instruments
// land on; nil gets a private one.
func newSessionManager(factory func(string) *gridmind.GridMind, defModel string, idleTTL time.Duration, maxSessions, maxQueue int, spillDir string, met *obs.Registry) *sessionManager {
	if met == nil {
		met = obs.NewRegistry()
	}
	now := time.Now()
	m := &sessionManager{
		factory:     factory,
		idleTTL:     idleTTL,
		maxSessions: maxSessions,
		maxQueue:    maxQueue,
		spillDir:    spillDir,
		sessions:    make(map[string]*managedSession),
		def:         &managedSession{Model: defModel, Created: now, gm: factory(defModel), lastUsed: now},
		now:         time.Now,
		stop:        make(chan struct{}),
		expired:     met.Counter("gridmind_sessions_expired_total", "Sessions dropped or spilled by the idle-expiry janitor."),
		spills:      met.Counter("gridmind_sessions_spilled_total", "Idle sessions persisted to the spill directory."),
		spillErrs:   met.Counter("gridmind_sessions_spill_errors_total", "Failed spill attempts (session kept live)."),
		restores:    met.Counter("gridmind_sessions_restored_total", "Spilled sessions transparently restored on touch."),
		restoreErrs: met.Counter("gridmind_sessions_restore_errors_total", "Spill files that failed to decode or restore."),
		restoreLat:  met.Histogram("gridmind_sessions_restore_latency_seconds", "Latency of restoring a spilled session from disk.", obs.DefLatencyBuckets),
	}
	met.GaugeFunc("gridmind_sessions_live", "Live sessions in the manager table.",
		func() float64 { return float64(m.len()) })
	if idleTTL > 0 {
		m.wg.Add(1)
		go m.janitor()
	}
	return m
}

func (m *sessionManager) janitor() {
	defer m.wg.Done()
	tick := m.idleTTL / 4
	if tick < time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.expireIdle()
		}
	}
}

// expireIdle drops sessions idle past the TTL; it returns how many died.
// A session with an in-flight ask is never idle, however long the solve
// runs — expiring it mid-use would 404 the very next request of an
// actively-used conversation. With a spill directory configured the
// session state is persisted before the table entry goes away, so the
// next ask restores it instead of 404ing; a failed spill keeps the
// session live rather than dropping conversation state on the floor.
// Persisting under the manager lock is deliberate: the session is idle
// (busy == 0) and holding the lock closes the window where an ask could
// land between the delete and the write.
func (m *sessionManager) expireIdle() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := m.now().Add(-m.idleTTL)
	n := 0
	for id, s := range m.sessions {
		if s.busy == 0 && s.lastUsed.Before(cutoff) {
			if m.spillDir != "" {
				if err := m.spill(s); err != nil {
					m.spillErrs.Inc()
					continue
				}
				m.spills.Inc()
			}
			delete(m.sessions, id)
			m.expired.Inc()
			n++
		}
	}
	return n
}

// spillEnvelope is the on-disk spill file: manager bookkeeping plus the
// session's own Persist payload, one JSON document per session id.
type spillEnvelope struct {
	SessionID string          `json:"session_id"`
	Model     string          `json:"model"`
	Created   time.Time       `json:"created_at"`
	Asks      int64           `json:"asks"`
	Session   json.RawMessage `json:"session"`
}

// spillIDRe guards the spill path against ids with path separators or
// other traversal material; generated ids are "sess-" + hex.
var spillIDRe = regexp.MustCompile(`^[A-Za-z0-9_-]+$`)

// spillPath maps a session id to its spill file; false when spilling is
// disabled or the id is not a safe file-name component.
func (m *sessionManager) spillPath(id string) (string, bool) {
	if m.spillDir == "" || !spillIDRe.MatchString(id) {
		return "", false
	}
	return filepath.Join(m.spillDir, id+".json"), true
}

// spill persists one idle session to disk. Caller holds m.mu.
func (m *sessionManager) spill(s *managedSession) error {
	path, ok := m.spillPath(s.ID)
	if !ok {
		return fmt.Errorf("session id %q is not spillable", s.ID)
	}
	var buf bytes.Buffer
	if err := s.gm.PersistSession(&buf); err != nil {
		return err
	}
	data, err := json.Marshal(spillEnvelope{
		SessionID: s.ID, Model: s.Model, Created: s.Created,
		Asks: s.asks, Session: buf.Bytes(),
	})
	if err != nil {
		return err
	}
	// Write-then-rename so a crash mid-write never leaves a torn file
	// where the restore path will look.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o600); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// restore revives a spilled session: decode the envelope, rebuild a
// GridMind via the factory, replay the persisted session into it, consume
// the file and install the session in the table. Caller holds m.mu for the
// whole revival, so no spill, remove or second restore of the id can
// interleave with it. Returns errSessionNotFound when there is no (usable)
// spill file, which the handlers map to 404 — exactly what a plain expiry
// looked like before spilling existed.
func (m *sessionManager) restore(id string) (*managedSession, error) {
	path, ok := m.spillPath(id)
	if !ok {
		return nil, errSessionNotFound
	}
	start := time.Now()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, errSessionNotFound
	}
	var env spillEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		m.restoreErrs.Inc()
		return nil, errSessionNotFound
	}
	gm := m.factory(env.Model)
	if err := gm.RestoreSession(bytes.NewReader(env.Session)); err != nil {
		m.restoreErrs.Inc()
		return nil, errSessionNotFound
	}
	if m.maxSessions > 0 && len(m.sessions) >= m.maxSessions {
		return nil, errAtCapacity
	}
	os.Remove(path)
	s := &managedSession{
		ID: id, Model: env.Model, Created: env.Created,
		gm: gm, lastUsed: m.now(), asks: env.Asks,
	}
	m.sessions[id] = s
	m.restores.Inc()
	m.restoreLat.ObserveDuration(time.Since(start))
	return s, nil
}

// close stops the janitor.
func (m *sessionManager) close() {
	close(m.stop)
	m.wg.Wait()
}

// create registers a new session for the model profile.
func (m *sessionManager) create(model string) (*managedSession, error) {
	var raw [9]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, fmt.Errorf("session id: %w", err)
	}
	id := "sess-" + hex.EncodeToString(raw[:])
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.maxSessions > 0 && len(m.sessions) >= m.maxSessions {
		return nil, errAtCapacity
	}
	now := m.now()
	s := &managedSession{
		ID:       id,
		Model:    model,
		Created:  now,
		gm:       m.factory(model),
		lastUsed: now,
	}
	m.sessions[id] = s
	return s, nil
}

// lookup resolves id to its session, "" naming the default session; a
// spilled session is restored first. Caller holds m.mu.
func (m *sessionManager) lookup(id string) (*managedSession, error) {
	if id == "" {
		return m.def, nil
	}
	if s, ok := m.sessions[id]; ok {
		return s, nil
	}
	return m.restore(id)
}

// get returns a session, refreshing its idle clock; a spilled session is
// restored first.
func (m *sessionManager) get(id string) (*managedSession, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	s.lastUsed = m.now()
	return s, nil
}

// acquire admits one ask into a session in a single critical section:
// lookup (restoring a spilled session), the in-flight bound, busy++ and
// the idle clock. From here to the matching release the session is busy,
// so the janitor cannot spill it from under the ask.
func (m *sessionManager) acquire(id string) (*managedSession, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	if m.maxQueue > 0 && s.busy >= m.maxQueue {
		// The hot-session pileup guard: shed load with a 429 instead of
		// parking an unbounded line of goroutines behind the session lock.
		return nil, errQueueFull
	}
	s.busy++
	s.lastUsed = m.now()
	return s, nil
}

// release ends an ask admitted by acquire.
func (m *sessionManager) release(s *managedSession) {
	m.mu.Lock()
	s.busy--
	s.asks++
	s.lastUsed = m.now()
	m.mu.Unlock()
}

// remove deletes a session — live table entry or spill file — in one
// critical section, so a racing restore either completes first (and its
// table entry is deleted here) or finds no file; false when neither
// exists.
func (m *sessionManager) remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.sessions[id]
	delete(m.sessions, id)
	if path, valid := m.spillPath(id); valid && os.Remove(path) == nil {
		ok = true
	}
	return ok
}

// ask routes one query into a session ("" = the default session),
// serialized per session: two asks into the same session queue behind
// each other; asks into different sessions run concurrently.
func (m *sessionManager) ask(ctx context.Context, id, query string) (*gridmind.Exchange, error) {
	s, err := m.acquire(id)
	if err != nil {
		return nil, err
	}
	defer m.release(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gm.Ask(ctx, query)
}

// sessionInfo is the /sessions listing row.
type sessionInfo struct {
	ID       string    `json:"session_id"`
	Model    string    `json:"model"`
	Created  time.Time `json:"created_at"`
	LastUsed time.Time `json:"last_used_at"`
	Asks     int64     `json:"asks"`
}

// list snapshots the live sessions, oldest first.
func (m *sessionManager) list() []sessionInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]sessionInfo, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, sessionInfo{
			ID: s.ID, Model: s.Model, Created: s.Created,
			LastUsed: s.lastUsed, Asks: s.asks,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Created.Before(out[b].Created) })
	return out
}

// len reports the live-session gauge.
func (m *sessionManager) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}
