package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"gridmind/internal/model"
	"gridmind/internal/ptdf"
)

// This file is the engine's persistent compiled-artifact store: the
// structural artifact set of a network — admittance matrix, prebuilt
// topology, PTDF factor matrix and the fill-reducing orderings — is
// deterministic per structural signature, so it can be serialized once and
// rehydrated by any number of cold processes. A fleet worker that warms
// from the store performs ZERO Ybus/topology/PTDF builds and zero ordering
// computations on its first sweep (counter-asserted in store_test.go);
// only the per-worker Newton pattern compile remains, and that is pooled
// per process by SweepPool.
//
// On-disk format (one file per structural signature, <dir>/<sig>.gmart):
//
//	magic   [8]byte  "GMARTST\n"
//	version uint32   little-endian; readers reject any mismatch
//	sum     [32]byte SHA-256 of the payload
//	payload []byte   gob(artifactPayload)
//
// Any header/checksum/decode/validation failure makes Load return
// ErrCorrupt (wrapping the cause) and WarmFrom fall back to a cold
// compile — a bad file can cost a recompilation, never a wrong result.
// Files are written tmp-then-rename, so a crashed writer leaves no
// half-written entry under the real name. See README.md for the contract.

// StoreVersion is the on-disk format version. Bump it whenever
// artifactPayload or any serialized artifact layout changes shape or
// meaning; readers treat every other version as a miss.
const StoreVersion = 1

var storeMagic = [8]byte{'G', 'M', 'A', 'R', 'T', 'S', 'T', '\n'}

// ErrCorrupt reports an artifact file that failed the checksum, decode or
// validation stage. Callers fall back to compiling from scratch.
var ErrCorrupt = errors.New("engine: corrupt artifact file")

// ErrStoreVersion reports an artifact file written by a different format
// version. Callers fall back to compiling from scratch.
var ErrStoreVersion = errors.New("engine: artifact store version mismatch")

// Store is a directory of persisted structural artifact sets, one file per
// signature. It is safe for concurrent use by multiple goroutines and —
// thanks to tmp-then-rename writes and whole-file checksums — by multiple
// processes sharing the directory (each worker of a fleet typically mounts
// the same store).
type Store struct {
	dir string
}

// NewStore opens (creating if necessary) an artifact store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("engine: artifact store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a structural signature to its artifact file. Signatures are
// lowercase hex (see StructSig), so the name needs no escaping.
func (s *Store) path(sig string) string {
	return filepath.Join(s.dir, sig+".gmart")
}

// artifactPayload is the gob body of one artifact file. Ybus serializes
// directly (all fields exported); Topology and PTDF go through their
// validated Data forms; orderings are the dimension-keyed permutations of
// the structure's OrderingCache at save time.
type artifactPayload struct {
	Sig       string
	Case      string
	Ybus      *model.Ybus
	Topo      model.TopologyData
	HasPTDF   bool
	PTDF      ptdf.MatrixData
	Orderings map[int][]int
}

// Save persists one signature's payload atomically (tmp-then-rename).
func (s *Store) save(p *artifactPayload) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(p); err != nil {
		return fmt.Errorf("engine: encode artifacts %s: %w", p.Sig, err)
	}
	sum := sha256.Sum256(body.Bytes())
	var out bytes.Buffer
	out.Write(storeMagic[:])
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], StoreVersion)
	out.Write(ver[:])
	out.Write(sum[:])
	out.Write(body.Bytes())

	tmp, err := os.CreateTemp(s.dir, "."+p.Sig+".tmp-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(out.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.path(p.Sig))
}

// load reads and validates one signature's payload. A missing file returns
// os.ErrNotExist; a version skew returns ErrStoreVersion; any checksum,
// decode or content failure returns ErrCorrupt (all wrapped).
func (s *Store) load(sig string) (*artifactPayload, error) {
	raw, err := os.ReadFile(s.path(sig))
	if err != nil {
		return nil, err
	}
	const header = 8 + 4 + 32
	if len(raw) < header || !bytes.Equal(raw[:8], storeMagic[:]) {
		return nil, fmt.Errorf("%w: %s: bad header", ErrCorrupt, sig)
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != StoreVersion {
		return nil, fmt.Errorf("%w: %s: file version %d, reader version %d", ErrStoreVersion, sig, v, StoreVersion)
	}
	body := raw[header:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], raw[12:header]) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, sig)
	}
	var p artifactPayload
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, sig, err)
	}
	if p.Sig != sig {
		return nil, fmt.Errorf("%w: %s: payload signed %s", ErrCorrupt, sig, p.Sig)
	}
	if p.Ybus == nil || p.Ybus.N <= 0 || len(p.Ybus.RowPtr) != p.Ybus.N+1 ||
		len(p.Ybus.NZ) != len(p.Ybus.NZv) {
		return nil, fmt.Errorf("%w: %s: inconsistent Ybus extents", ErrCorrupt, sig)
	}
	return &p, nil
}

// SaveArtifacts persists n's structural artifact set — building any piece
// not yet built — so a cold process can warm from disk instead of
// recompiling: the shared Ybus, the prebuilt topology, the PTDF factor
// matrix (skipped, not fatal, when the structure has none — e.g. no slack)
// and every fill-reducing ordering cached for the structure so far.
//
// Call it AFTER the workload that populates the ordering cache (a sweep, a
// base power flow): orderings present at save time are exactly the ones a
// warmed worker will find. Saving is idempotent per signature and safe to
// repeat as the cache grows.
func (e *Engine) SaveArtifacts(st *Store, n *model.Network) error {
	if st == nil {
		return errors.New("engine: SaveArtifacts needs a store")
	}
	a := e.Artifacts(n)
	p := &artifactPayload{
		Sig:       a.Sig,
		Case:      n.Name,
		Ybus:      a.Ybus(),
		Topo:      a.Topology().Export(),
		Orderings: a.Ordering().Export(),
	}
	if m, err := a.PTDF(); err == nil {
		p.HasPTDF = true
		p.PTDF = m.Export()
	}
	if err := st.save(p); err != nil {
		return err
	}
	e.stats.storeSaves.Add(1)
	return nil
}

// WarmFrom loads n's structural artifact set from the store and installs
// it, so subsequent Ybus/Topology/PTDF accesses and ordering lookups are
// served without a single build (counter-asserted by store_test.go). It
// returns true on a hit. A missing entry returns (false, nil); a corrupt
// or version-skewed entry returns (false, err) with the error also counted
// on the registry — in both cases the engine simply stays cold and
// compiles on demand, so callers may treat any false as "proceed cold".
//
// Artifacts already built in this process win over the store (install is
// first-writer-wins per artifact), which keeps every consumer on the exact
// pointers it already shares.
func (e *Engine) WarmFrom(st *Store, n *model.Network) (bool, error) {
	if st == nil {
		return false, errors.New("engine: WarmFrom needs a store")
	}
	a := e.Artifacts(n)
	p, err := st.load(a.Sig)
	if err != nil {
		if os.IsNotExist(err) {
			e.stats.storeMisses.Add(1)
			return false, nil
		}
		e.stats.storeErrors.Add(1)
		return false, err
	}
	topo, err := model.TopologyFromData(p.Topo)
	if err != nil {
		e.stats.storeErrors.Add(1)
		return false, fmt.Errorf("%w: %s: %v", ErrCorrupt, a.Sig, err)
	}
	var ptdfM *ptdf.Matrix
	if p.HasPTDF {
		if ptdfM, err = ptdf.FromData(p.PTDF); err != nil {
			e.stats.storeErrors.Add(1)
			return false, fmt.Errorf("%w: %s: %v", ErrCorrupt, a.Sig, err)
		}
	}
	a.installYbus(p.Ybus)
	a.installTopology(topo)
	if ptdfM != nil {
		a.installPTDF(ptdfM)
	}
	a.Ordering().Import(p.Orderings)
	e.stats.storeHits.Add(1)
	return true, nil
}

// installYbus seeds the artifact slot from the store without counting a
// build; a concurrently completed build wins (first writer per Once).
func (a *Artifacts) installYbus(y *model.Ybus) {
	a.ybusOnce.Do(func() { a.ybus = y })
}

func (a *Artifacts) installTopology(t *model.Topology) {
	a.topoOnce.Do(func() { a.topo = t })
}

func (a *Artifacts) installPTDF(m *ptdf.Matrix) {
	a.ptdfOnce.Do(func() { a.ptdf = m })
}
