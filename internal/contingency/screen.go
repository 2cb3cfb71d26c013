package contingency

import (
	"math"

	"gridmind/internal/model"
	"gridmind/internal/powerflow"
	"gridmind/internal/ptdf"
	"gridmind/internal/sparse"
)

// screener implements two-stage linear contingency screening, the classic
// production-CA structure [Ejebe & Wollenberg]:
//
//   - thermal: active flows shifted by LODFs on top of the AC base point,
//     reactive flows carried over, per-branch MVA loading checked against
//     the threshold (with an allowance for branches the outage does not
//     move);
//   - voltage ("1Q" screening): the post-outage voltage sag is estimated
//     from the fast-decoupled Q-V equation B”·ΔV = ΔQ/V, where the
//     removal of the branch is applied to the factorized base B” as a
//     Woodbury rank-2 update, so each candidate costs two triangular
//     solves instead of a refactorization.
//
// An outage passing both stages is certified secure without a full AC
// solve; anything else falls through to the exact path.
type screener struct {
	factors *ptdf.Matrix
	preP    []float64 // AC base active flow per branch (from end, MW)
	preQ    []float64 // AC base reactive flow per branch (from end, MVAr)
	preQTo  []float64 // AC base reactive flow entering at the to end (MVAr)
	basePct []float64 // AC base loading percentage per branch
	baseVm  []float64

	// Q-V screening state.
	y     *model.Ybus
	luBpp *sparse.LU
	pqPos []int // bus -> position in the PQ block, -1 otherwise
	pqBus []int // position -> bus
	// Voltage-regulated buses (PV + slack with in-service generation) and
	// their aggregate reactive state, for the Q-reserve trust check: the
	// linear floor estimate assumes regulated buses hold their setpoints,
	// which is only true while their generators have reactive headroom.
	regBus   []int
	qGenBase []float64 // per-bus base-case generator MVAr
	qMinBus  []float64 // per-bus aggregate QMin, MVAr
	qMaxBus  []float64 // per-bus aggregate QMax, MVAr
	// baseSecure reports whether the base case itself satisfies the
	// violation thresholds; screening certifies nothing otherwise.
	baseSecure bool
}

// loadingAllowancePct is the per-branch tolerance of the thermal rule: a
// branch counts as unaffected when its predicted loading stays within
// this many percentage points of its base-case loading.
const loadingAllowancePct = 2.0

// voltScreenMarginPU is the required margin of the estimated post-outage
// voltage floor above the violation threshold.
const voltScreenMarginPU = 0.005

// sagTrustPU is the largest predicted voltage sag for which the linear
// Q-V estimate is trusted: beyond it the Q-V curve's steepening makes the
// linearization optimistic, so the outage goes to the full AC path.
const sagTrustPU = 0.02

// sagSafetyFactor conservatively amplifies predicted sags before they are
// compared against the violation threshold (the linear estimate is a
// lower bound on the true sag in the trusted small-sag regime).
const sagSafetyFactor = 2.0

// qReserveMarginMVA is the minimum reactive headroom a regulated bus must
// retain after the linearized post-outage reaction for the voltage
// estimate to be trusted; the requirement scales up with the size of the
// predicted reaction (a large linear estimate carries a large error bar).
const qReserveMarginMVA = 2.0

// weakFeedShare distrusts the estimate when the outaged branch supplied
// more than this share of a PQ endpoint's total susceptance: the bus is
// then weakly fed post-outage and its Q-V behaviour turns sharply
// nonlinear, which the linear floor estimate cannot track.
const weakFeedShare = 0.5

// screenedAlgorithm labels outage results certified by the linear
// two-stage screen rather than a full AC solve.
const screenedAlgorithm = "lodf-1q-screened"

// newScreener prepares the screen of n's outages around the AC base point
// from the outage base b's PTDF and Ybus.
func newScreener(n *model.Network, base *powerflow.Result, b Base) (*screener, error) {
	m, err := b.PTDF()
	if err != nil {
		return nil, err
	}
	s := &screener{
		factors: m,
		preP:    make([]float64, len(n.Branches)),
		preQ:    make([]float64, len(n.Branches)),
		preQTo:  make([]float64, len(n.Branches)),
		basePct: make([]float64, len(n.Branches)),
		baseVm:  append([]float64(nil), base.Voltages.Vm...),
	}
	s.baseSecure = base.MinVm >= voltLow && base.MaxVm <= voltHigh
	for k := range n.Branches {
		s.preP[k] = base.Flows[k].FromP
		s.preQ[k] = base.Flows[k].FromQ
		s.preQTo[k] = base.Flows[k].ToQ
		s.basePct[k] = base.Flows[k].LoadingPct
		if s.basePct[k] > overloadPct {
			s.baseSecure = false
		}
	}
	if !s.baseSecure {
		return s, nil // screener disabled; trySecure rejects everything
	}

	// Assemble and factorize the base B'' (−Im(Ybus) over PQ buses). The
	// screener only reads the admittance matrix (its outage updates go
	// through the Woodbury identity), so the base's shared Ybus is used
	// as-is.
	s.y = b.Ybus()
	hasGen := make([]bool, len(n.Buses))
	s.qGenBase = make([]float64, len(n.Buses))
	s.qMinBus = make([]float64, len(n.Buses))
	s.qMaxBus = make([]float64, len(n.Buses))
	for gi, g := range n.Gens {
		if !g.InService {
			continue
		}
		hasGen[g.Bus] = true
		s.qGenBase[g.Bus] += base.GenQ[gi]
		s.qMinBus[g.Bus] += g.QMin
		s.qMaxBus[g.Bus] += g.QMax
	}
	s.pqPos = make([]int, len(n.Buses))
	for i, b := range n.Buses {
		s.pqPos[i] = -1
		if b.Type == model.Slack || (b.Type == model.PV && hasGen[i]) {
			if hasGen[i] && b.Type != model.Slack {
				// The slack's reserves absorb the system residual; only
				// PV units are checked against their limits.
				s.regBus = append(s.regBus, i)
			}
			continue
		}
		s.pqPos[i] = len(s.pqBus)
		s.pqBus = append(s.pqBus, i)
	}
	if len(s.pqBus) == 0 {
		return s, nil
	}
	bpp := sparse.NewCOO(len(s.pqBus), len(s.pqBus))
	for p, nz := range s.y.NZ {
		i, j := nz[0], nz[1]
		if s.pqPos[i] >= 0 && s.pqPos[j] >= 0 {
			bpp.Add(s.pqPos[i], s.pqPos[j], -imag(s.y.NZv[p]))
		}
	}
	lu, err := sparse.Factorize(bpp.ToCSC(), sparse.Options{})
	if err != nil {
		s.baseSecure = false // cannot voltage-screen; disable
	} else {
		s.luBpp = lu
	}
	return s, nil
}

// trySecure returns a screened-secure record when both linear stages say
// the outage of branch k cannot approach any limit; nil sends it to the
// full AC path. The active flows come from the LODFs.
func (s *screener) trySecure(n *model.Network, k int) *OutageResult {
	if !s.baseSecure {
		return nil
	}
	flows, err := s.factors.PostOutageFlows(s.preP, k)
	if err != nil {
		return nil // islanding or numerical trouble: full analysis
	}
	// 1Q stage first: the linearized voltage solution also prices the
	// reactive redistribution the thermal stage needs.
	dv, ok := s.qvSolve(n, k, flows)
	if !ok {
		return nil
	}
	// Thermal stage: predicted active flows; reactive flows shifted by the
	// branch Q-flow change the voltage solution implies
	// (ΔQ_f ≈ b_series·(ΔV_f − ΔV_t)), so MVAr-heavy branches are not
	// invisible to the screen. The worse of {carried-over, shifted} Q is
	// used per branch, with the unaffected allowance.
	var worst float64
	for bk, br := range n.Branches {
		if !br.InService || br.RateMVA <= 0 || bk == k {
			continue
		}
		var dvf, dvt float64
		if pos := s.pqPos[br.From]; pos >= 0 {
			dvf = dv[pos]
		}
		if pos := s.pqPos[br.To]; pos >= 0 {
			dvt = dv[pos]
		}
		bser := br.X / (br.R*br.R + br.X*br.X)
		shifted := s.preQ[bk] + bser*(dvf-dvt)*n.BaseMVA
		q := math.Max(math.Abs(s.preQ[bk]), math.Abs(shifted))
		pct := 100 * math.Hypot(flows[bk], q) / br.RateMVA
		if pct > worst {
			worst = pct
		}
		if pct >= screenThreshold && pct > s.basePct[bk]+loadingAllowancePct {
			return nil
		}
	}
	// Voltage stage: the estimated post-outage extremes must clear both
	// thresholds with margin.
	estMin, estMax, ok := s.boundsFromDV(n, dv)
	if !ok || estMin < voltLow+voltScreenMarginPU || estMax > voltHigh-voltScreenMarginPU {
		return nil
	}

	out := newOutageResult(n, branchOutage(k))
	out.Converged = true
	out.MaxLoadingPct = worst
	out.MinVoltagePU = estMin
	out.Algorithm = screenedAlgorithm
	out.Severity = severity(out)
	return out
}

// qvSolve solves the fast-decoupled Q-V equation with branch k removed via
// a rank-≤2 Woodbury update of the factorized base B”, computing the
// linearized post-outage voltage change of every PQ bus (the 1Q stage).
// The update's PQ endpoint columns are batched through ONE SolveBlockInto
// multi-RHS triangular pass. flows are the LODF-predicted post-outage MW
// flows; they feed the reactive-loss term of the forcing. It returns
// ok=false when the estimate cannot be trusted — a weakly-fed endpoint,
// numerical trouble, or a regulated bus whose generators would be pushed
// near a reactive limit — which routes the outage to the full AC path.
func (s *screener) qvSolve(n *model.Network, k int, flows []float64) ([]float64, bool) {
	if s.luBpp == nil || len(s.pqBus) == 0 {
		return nil, false
	}
	br := n.Branches[k]
	// PQ positions of the branch's endpoints, −1 for regulated buses.
	// model.Validate rejects self loops, so two PQ endpoints differ.
	f, t := s.pqPos[br.From], s.pqPos[br.To]

	// Weak-feed distrust: a PQ endpoint that loses most of its susceptance
	// with the removed branch turns sharply nonlinear.
	if f >= 0 && -imag(s.y.Yff[k]) > weakFeedShare*(-imag(s.y.Diag(br.From))) {
		return nil, false
	}
	if t >= 0 && -imag(s.y.Ytt[k]) > weakFeedShare*(-imag(s.y.Diag(br.To))) {
		return nil, false
	}

	// ΔQ: removing a branch frees the reactive power it absorbed at each
	// (PQ) endpoint; the mismatch pushes the Q-V equation. The screener
	// runs from concurrent sweep workers, so the scratch buffers are per
	// call; SolveInto keeps it to one rhs + one workspace.
	npq := len(s.pqBus)
	dq := make([]float64, npq)
	work := make([]float64, npq)
	// Sign: preQ is the MVAr a bus sends INTO the branch; with the branch
	// gone that power is surplus at the bus, so the mismatch driving the
	// Q-V equation is +preQ (a bus that was fed through the branch has
	// preQ < 0 and correctly sags).
	if f >= 0 {
		dq[f] += s.preQ[k] / n.BaseMVA / math.Max(s.baseVm[br.From], 0.5)
	}
	if t >= 0 {
		dq[t] += s.preQTo[k] / n.BaseMVA / math.Max(s.baseVm[br.To], 0.5)
	}

	// Rerouted active power raises series reactive losses (ΔQ ≈ X·ΔI²)
	// across the surviving branches — the dominant sag driver the
	// endpoint terms alone miss. Each branch's loss increase is drawn
	// half from each terminal: PQ terminals join the forcing vector,
	// regulated terminals burden their generators (checked below).
	lossReg := map[int]float64(nil)
	for b, bb := range n.Branches {
		if !bb.InService || bb.X == 0 || b == k {
			continue
		}
		dql := bb.X * (flows[b]*flows[b] - s.preP[b]*s.preP[b]) / (n.BaseMVA * n.BaseMVA)
		if dql == 0 {
			continue
		}
		for _, end := range [2]int{bb.From, bb.To} {
			if p := s.pqPos[end]; p >= 0 {
				dq[p] -= dql / 2 / math.Max(s.baseVm[end], 0.5)
			} else {
				if lossReg == nil {
					lossReg = make(map[int]float64)
				}
				lossReg[end] += dql / 2
			}
		}
	}

	// Base solve (in place: dst aliases the rhs).
	x0 := dq
	if err := s.luBpp.SolveInto(x0, dq, work); err != nil {
		return nil, false
	}

	// Woodbury correction for B''_post = B'' − U·S·Uᵀ where S holds the
	// removed branch's contribution at its PQ endpoint columns (rank ≤ 2).
	var cols [2]int
	m := 0
	for _, p := range [2]int{f, t} {
		if p >= 0 {
			cols[m] = p
			m++
		}
	}
	dv := x0
	if m > 0 {
		// S entries: ΔB''[a][b] = −Im(removed Y blocks).
		entry := func(a, b int) float64 {
			var v float64
			switch {
			case a == f && b == f:
				v += -imag(s.y.Yff[k])
			case a == f && b == t:
				v += -imag(s.y.Yft[k])
			case a == t && b == f:
				v += -imag(s.y.Ytf[k])
			case a == t && b == t:
				v += -imag(s.y.Ytt[k])
			}
			return v
		}
		// Solve B''·u_j = e_cols[j], all columns batched through one
		// multi-RHS triangular pass.
		ub := make([]float64, npq*m)
		bwork := make([]float64, npq*m)
		for j, c := range cols[:m] {
			ub[j*npq+c] = 1
		}
		if err := s.luBpp.SolveBlockInto(ub, ub, bwork, m); err != nil {
			return nil, false
		}
		var us [2][]float64
		for j := 0; j < m; j++ {
			us[j] = ub[j*npq : (j+1)*npq]
		}
		// Capacitance C = S⁻¹ − Uᵀ B''⁻¹ U (m×m, m ≤ 2).
		var sMat [2][2]float64
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				sMat[a][b] = entry(cols[a], cols[b])
			}
		}
		sInv, ok := invSmall(sMat, m)
		if !ok {
			return nil, false
		}
		var c [2][2]float64
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				c[a][b] = sInv[a][b] - us[b][cols[a]]
			}
		}
		cInv, ok := invSmall(c, m)
		if !ok {
			return nil, false // singular: outage is radial in the Q network
		}
		// dv = x0 + U_sol · C⁻¹ · (Uᵀ x0) with U_sol[j] = B''⁻¹ e_j.
		var w [2]float64
		for a := 0; a < m; a++ {
			w[a] = x0[cols[a]]
		}
		for i := 0; i < npq; i++ {
			var corr float64
			for a := 0; a < m; a++ {
				for b := 0; b < m; b++ {
					corr += us[a][i] * cInv[a][b] * w[b]
				}
			}
			dv[i] = x0[i] + corr
		}
	}

	// Q-reserve trust check: the estimate pins regulated buses at their
	// setpoints, which holds only while their generators stay inside
	// reactive limits. Linearize each PV bus's reaction — the Q freed by
	// the outage at that bus plus the B''-coupled response to the PQ
	// voltage changes — and distrust the whole estimate if any unit would
	// be pushed within the margin of a limit (the AC path would switch it
	// PV→PQ and the bus would sag in a way the linear model cannot see).
	for _, g := range s.regBus {
		// Direct terms (freed branch flow, loss shares) are ΔQ in p.u.
		// already; the B''-coupled response is ΔQ/V and needs the V_g
		// scale back, matching the ΔQ/V convention of the PQ forcing.
		dq := lossReg[g]
		if br.From == g {
			dq -= s.preQ[k] / n.BaseMVA
		} else if br.To == g {
			dq -= s.preQTo[k] / n.BaseMVA
		}
		var react float64
		for p := s.y.RowPtr[g]; p < s.y.RowPtr[g+1]; p++ {
			if jp := s.pqPos[s.y.NZ[p][1]]; jp >= 0 {
				react += -imag(s.y.NZv[p]) * dv[jp]
			}
		}
		dqMVA := (dq + react*math.Max(s.baseVm[g], 0.5)) * n.BaseMVA
		qNew := s.qGenBase[g] + dqMVA
		// The margin scales with the predicted reaction: a big linear
		// estimate carries a proportionally big error bar.
		margin := math.Max(qReserveMarginMVA, math.Abs(dqMVA))
		if qNew > s.qMaxBus[g]-margin || qNew < s.qMinBus[g]+margin {
			return nil, false
		}
	}

	return dv, true
}

// boundsFromDV turns the PQ voltage-change vector into conservative
// post-outage voltage bounds: when forming the floor, predicted rises are
// ignored and sags amplified by sagSafetyFactor; when forming the ceiling,
// symmetrically, sags are ignored and rises amplified. Any |change| beyond
// sagTrustPU distrusts the whole estimate (outside the small-signal regime
// the linearization is systematically optimistic).
func (s *screener) boundsFromDV(n *model.Network, dv []float64) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for p, bus := range s.pqBus {
		d := dv[p]
		if d > sagTrustPU || -d > sagTrustPU {
			return 0, 0, false
		}
		if v := s.baseVm[bus] + sagSafetyFactor*math.Min(d, 0); v < lo {
			lo = v
		}
		if v := s.baseVm[bus] + sagSafetyFactor*math.Max(d, 0); v > hi {
			hi = v
		}
	}
	// Non-PQ buses hold their setpoints.
	for i := range n.Buses {
		if s.pqPos[i] < 0 {
			if s.baseVm[i] < lo {
				lo = s.baseVm[i]
			}
			if s.baseVm[i] > hi {
				hi = s.baseVm[i]
			}
		}
	}
	return lo, hi, true
}

// invSmall inverts an m×m (m ≤ 2) matrix stored in a fixed array, by
// the closed forms.
func invSmall(a [2][2]float64, m int) ([2][2]float64, bool) {
	var out [2][2]float64
	switch m {
	case 1:
		if math.Abs(a[0][0]) < 1e-12 {
			return out, false
		}
		out[0][0] = 1 / a[0][0]
		return out, true
	case 2:
		det := a[0][0]*a[1][1] - a[0][1]*a[1][0]
		if math.Abs(det) < 1e-12 {
			return out, false
		}
		out[0][0] = a[1][1] / det
		out[1][1] = a[0][0] / det
		out[0][1] = -a[0][1] / det
		out[1][0] = -a[1][0] / det
		return out, true
	default:
		return out, false
	}
}
