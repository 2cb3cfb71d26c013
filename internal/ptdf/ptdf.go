// Package ptdf computes linear distribution factors for fast contingency
// screening: PTDFs (power transfer distribution factors — the sensitivity
// of branch flows to nodal injections) and LODFs (line outage distribution
// factors — the fraction of a tripped line's flow that shifts onto each
// remaining line).
//
// The contingency engine uses these to screen the N-1 outage list: an
// outage whose LODF-predicted worst loading is far below the threshold is
// classified secure without a full AC solve, reproducing the classic
// screening stage of production contingency analysis [Ejebe & Wollenberg].
//
// LODF columns are computed lazily from the PTDF rows and memoized per
// outage: a sweep that screens most outages touches only the columns it
// needs, instead of materializing the dense O(nbr²) LODF matrix up front.
package ptdf

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// Matrix holds the distribution factors of a network snapshot. Branch
// rows are indexed by position in Network.Branches; out-of-service or
// zero-reactance branches have zero rows.
type Matrix struct {
	// PTDF[k][i] is the MW flow change on branch k per MW injected at bus
	// i (withdrawn at the slack).
	PTDF [][]float64

	nb, nbr int
	slack   int

	// Branch snapshot captured at Build, so lazy LODF columns do not
	// depend on the (possibly since-mutated) source network.
	from, to []int
	valid    []bool // in-service with nonzero reactance

	// Lazy LODF memo: column mm is computed from the PTDF rows on first
	// access (O(nbr)) and reused afterwards. Each column has its own
	// sync.Once, so memo hits are a lock-free fast path, concurrent first
	// touches of distinct columns compute in parallel, and only racing
	// accesses to the SAME column serialize. lodfIsl remembers islanding
	// columns so their sentinel error is memoized too; both slices are
	// published happens-before by the Once.
	lodfOnce []sync.Once
	lodfCols [][]float64
	lodfIsl  []bool
}

// thetaBlock is the number of B⁻¹·e_i columns batched into one multi-RHS
// triangular solve during Build, amortizing factor traversal.
const thetaBlock = 16

// ErrIslanding reports a radial branch whose outage disconnects the
// network, for which LODFs are undefined.
var ErrIslanding = errors.New("ptdf: branch outage islands the network")

// Build computes the PTDF matrix for the in-service DC topology and
// prepares the lazy LODF state. No LODF column is computed here.
func Build(n *model.Network) (*Matrix, error) {
	nb := len(n.Buses)
	slack := n.SlackBus()
	if slack < 0 {
		return nil, errors.New("ptdf: network has no slack bus")
	}
	nbr := len(n.Branches)
	m := &Matrix{
		nb: nb, nbr: nbr, slack: slack,
		from:     make([]int, nbr),
		to:       make([]int, nbr),
		valid:    make([]bool, nbr),
		lodfOnce: make([]sync.Once, nbr),
		lodfCols: make([][]float64, nbr),
		lodfIsl:  make([]bool, nbr),
	}
	for k, br := range n.Branches {
		m.from[k], m.to[k] = br.From, br.To
		m.valid[k] = br.InService && br.X != 0
	}

	// Reduced susceptance matrix over non-slack buses.
	pos := make([]int, nb)
	for i := range pos {
		pos[i] = -1
	}
	na := 0
	for i := 0; i < nb; i++ {
		if i != slack {
			pos[i] = na
			na++
		}
	}
	bm := sparse.NewCOO(na, na)
	for _, br := range n.Branches {
		if !br.InService || br.X == 0 {
			continue
		}
		b := 1 / br.X
		f, t := br.From, br.To
		if pos[f] >= 0 {
			bm.Add(pos[f], pos[f], b)
		}
		if pos[t] >= 0 {
			bm.Add(pos[t], pos[t], b)
		}
		if pos[f] >= 0 && pos[t] >= 0 {
			bm.Add(pos[f], pos[t], -b)
			bm.Add(pos[t], pos[f], -b)
		}
	}
	lu, err := sparse.Factorize(bm.ToCSC(), sparse.Options{})
	if err != nil {
		return nil, fmt.Errorf("ptdf: susceptance matrix: %w", err)
	}

	// theta[i] = B⁻¹ e_i over non-slack buses. The solves against the
	// cached factorization are independent; workers pull blocks of
	// thetaBlock unit right-hand sides and push each block through one
	// SolveBlockInto, so the L/U factor patterns are traversed once per
	// block instead of once per column.
	theta := make([][]float64, nb)
	theta[slack] = make([]float64, na)
	cols := make([]int, 0, na)
	for i := 0; i < nb; i++ {
		if i != slack {
			cols = append(cols, i)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if max := (len(cols) + thetaBlock - 1) / thetaBlock; workers > max {
		workers = max
	}
	errs := make([]error, workers)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rhs := make([]float64, na*thetaBlock)
			dst := make([]float64, na*thetaBlock)
			work := make([]float64, na*thetaBlock)
			for {
				lo := int(atomic.AddInt64(&next, 1)-1) * thetaBlock
				if lo >= len(cols) {
					return
				}
				hi := lo + thetaBlock
				if hi > len(cols) {
					hi = len(cols)
				}
				nrhs := hi - lo
				for j := 0; j < nrhs; j++ {
					rhs[j*na+pos[cols[lo+j]]] = 1
				}
				if err := lu.SolveBlockInto(dst[:na*nrhs], rhs[:na*nrhs], work[:na*nrhs], nrhs); err != nil {
					errs[w] = err
					return
				}
				for j := 0; j < nrhs; j++ {
					rhs[j*na+pos[cols[lo+j]]] = 0
					theta[cols[lo+j]] = append([]float64(nil), dst[j*na:(j+1)*na]...)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	m.PTDF = make([][]float64, nbr)
	for k, br := range n.Branches {
		row := make([]float64, nb)
		m.PTDF[k] = row
		if !m.valid[k] {
			continue
		}
		b := 1 / br.X
		for i := 0; i < nb; i++ {
			var tf, tt float64
			if pos[br.From] >= 0 {
				tf = theta[i][pos[br.From]]
			}
			if pos[br.To] >= 0 {
				tt = theta[i][pos[br.To]]
			}
			row[i] = b * (tf - tt)
		}
	}
	return m, nil
}

// MatrixData is the persistable form of a Matrix: the dense PTDF rows and
// the branch snapshot captured at Build. The lazy LODF memo is NOT part of
// it — columns rehydrate empty and recompute on first touch (each is an
// O(nbr) combination of PTDF rows), so persisting the memo would trade a
// cheap recompute for an O(nbr²) file.
type MatrixData struct {
	PTDF     [][]float64
	NB, NBr  int
	Slack    int
	From, To []int
	Valid    []bool
}

// Export returns the persistable form of the matrix. The slices are shared
// with the Matrix — treat them as immutable, like the Matrix itself.
func (m *Matrix) Export() MatrixData {
	return MatrixData{
		PTDF: m.PTDF, NB: m.nb, NBr: m.nbr, Slack: m.slack,
		From: m.from, To: m.to, Valid: m.valid,
	}
}

// FromData rehydrates a Matrix from its persisted form with a fresh lazy
// LODF memo, validating dimensions so a corrupt or truncated artifact file
// fails the load instead of producing out-of-range factor lookups.
func FromData(d MatrixData) (*Matrix, error) {
	if d.NB <= 0 || d.NBr < 0 || d.Slack < 0 || d.Slack >= d.NB {
		return nil, fmt.Errorf("ptdf: matrix data: bad dimensions nb=%d nbr=%d slack=%d", d.NB, d.NBr, d.Slack)
	}
	if len(d.PTDF) != d.NBr || len(d.From) != d.NBr || len(d.To) != d.NBr || len(d.Valid) != d.NBr {
		return nil, fmt.Errorf("ptdf: matrix data: inconsistent branch extents")
	}
	for k, row := range d.PTDF {
		if len(row) != d.NB {
			return nil, fmt.Errorf("ptdf: matrix data: row %d has %d entries for %d buses", k, len(row), d.NB)
		}
		if d.From[k] < 0 || d.From[k] >= d.NB || d.To[k] < 0 || d.To[k] >= d.NB {
			return nil, fmt.Errorf("ptdf: matrix data: branch %d endpoints out of range", k)
		}
	}
	return &Matrix{
		PTDF: d.PTDF, nb: d.NB, nbr: d.NBr, slack: d.Slack,
		from: d.From, to: d.To, valid: d.Valid,
		lodfOnce: make([]sync.Once, d.NBr),
		lodfCols: make([][]float64, d.NBr),
		lodfIsl:  make([]bool, d.NBr),
	}, nil
}

// LODFCol returns column mm of the LODF matrix: LODFCol(mm)[k] is the
// fraction of branch mm's pre-outage flow that appears on branch k when mm
// is tripped, with the conventional −1 at k == mm and zeros on invalid
// rows. The column is computed from the PTDF rows on first access and
// memoized; radial (islanding) outages memoize and return ErrIslanding.
// Out-of-service or zero-reactance mm yields an all-zero column, matching
// the eager dense construction. The returned slice is shared — callers
// must not modify it. Safe for concurrent use.
func (m *Matrix) LODFCol(mm int) ([]float64, error) {
	if mm < 0 || mm >= m.nbr {
		return nil, fmt.Errorf("ptdf: branch %d out of range", mm)
	}
	m.lodfOnce[mm].Do(func() {
		col := make([]float64, m.nbr)
		if m.valid[mm] {
			fm, tm := m.from[mm], m.to[mm]
			denom := 1 - (m.PTDF[mm][fm] - m.PTDF[mm][tm])
			if math.Abs(denom) < 1e-8 {
				// Radial branch: outage islands the network.
				m.lodfIsl[mm] = true
				return
			}
			for k := 0; k < m.nbr; k++ {
				if !m.valid[k] {
					continue
				}
				if k == mm {
					col[k] = -1
					continue
				}
				col[k] = (m.PTDF[k][fm] - m.PTDF[k][tm]) / denom
			}
		}
		m.lodfCols[mm] = col
	})
	if m.lodfIsl[mm] {
		return nil, ErrIslanding
	}
	return m.lodfCols[mm], nil
}

// PostOutageFlows predicts DC branch flows after the outage of branch mm,
// given pre-outage flows (MW at the from end). It returns ErrIslanding
// for radial branches.
func (m *Matrix) PostOutageFlows(preMW []float64, mm int) ([]float64, error) {
	col, err := m.LODFCol(mm)
	if err != nil {
		return nil, err
	}
	out := make([]float64, m.nbr)
	for k := 0; k < m.nbr; k++ {
		if k == mm {
			continue
		}
		out[k] = preMW[k] + col[k]*preMW[mm]
	}
	return out, nil
}
