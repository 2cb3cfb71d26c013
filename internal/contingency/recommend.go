package contingency

import (
	"fmt"
	"sort"
)

// RecommendationKind classifies a mitigation, following §3.2.3's action
// classes: capacity reinforcement, reactive support, remedial switching.
type RecommendationKind string

// Mitigation classes.
const (
	ReinforceCapacity RecommendationKind = "reinforce_capacity"
	ReactiveSupport   RecommendationKind = "reactive_support"
	RemedialSwitching RecommendationKind = "remedial_switching"
)

// Recommendation is one actionable mitigation derived from a sweep, with
// the evidence that justifies it (the paper's "auditable justifications
// supporting operational decision-making").
type Recommendation struct {
	Kind RecommendationKind `json:"kind"`
	// Branch or BusID identifies the target element (one of them set).
	Branch int `json:"branch,omitempty"`
	BusID  int `json:"bus_id,omitempty"`
	// Score orders recommendations (higher = more urgent).
	Score float64 `json:"score"`
	// Evidence counts the supporting observations.
	Evidence int `json:"evidence"`
	// Rationale is the human-readable audit trail.
	Rationale string `json:"rationale"`
}

// Recommend synthesizes mitigation actions from a completed sweep:
//
//   - branches that overload under many different outages are capacity
//     reinforcement candidates (recurring overload corridors),
//   - buses that violate their voltage floor under many outages need
//     reactive support,
//   - outages whose severity is dominated by a single downstream overload
//     suggest remedial switching studies on that corridor.
//
// The candidates are scored and ranked once per set; each call keeps
// limit rows of that ranking (all of them when limit ≤ 0) and writes the
// rationales of those rows only.
func (rs *ResultSet) Recommend(limit int) []Recommendation {
	rs.memo.candsOnce.Do(func() { rs.memo.cands = rankCandidates(rs.Outages) })
	cands := rs.memo.cands
	if limit > 0 && len(cands) > limit {
		cands = cands[:limit]
	}
	var out []Recommendation
	for _, c := range cands {
		r := c.Recommendation
		switch r.Kind {
		case ReinforceCapacity:
			r.Rationale = fmt.Sprintf(
				"branch %d (%d-%d) overloads under %d different outages (worst %.0f%%); add parallel capacity or uprate the corridor",
				r.Branch, c.from, c.to, r.Evidence, c.worst)
		case RemedialSwitching:
			r.Rationale = fmt.Sprintf(
				"branch %d (%d-%d) overloads only under %d specific outage(s) but severely (%.0f%%); evaluate post-contingency switching instead of reinforcement",
				r.Branch, c.from, c.to, r.Evidence, c.worst)
		case ReactiveSupport:
			r.Rationale = fmt.Sprintf(
				"bus %d drops below its voltage floor under %d outage(s) (deepest excursion %.3f p.u.); add shunt compensation or local reactive reserves",
				r.BusID, r.Evidence, c.depth)
		}
		out = append(out, r)
	}
	return out
}

// candidate is a scored recommendation before its rationale is written.
type candidate struct {
	Recommendation
	from, to int
	worst    float64 // overload corridors: worst loading %
	depth    float64 // reactive support: deepest excursion p.u.
}

// rankCandidates scores every recurring overload corridor and voltage
// floor violation of the outages and sorts them by score.
func rankCandidates(outages []OutageResult) []candidate {
	type corridorStat struct {
		count int
		worst float64
		from  int
		to    int
	}
	overloadHits := map[int]*corridorStat{}
	voltageHits := map[int]struct {
		count int
		depth float64
	}{}
	for i := range outages {
		o := &outages[i]
		for _, ov := range o.Overloads {
			st := overloadHits[ov.Branch]
			if st == nil {
				st = &corridorStat{from: ov.FromBusID, to: ov.ToBusID}
				overloadHits[ov.Branch] = st
			}
			st.count++
			if ov.LoadingPct > st.worst {
				st.worst = ov.LoadingPct
			}
		}
		for _, vv := range o.VoltViols {
			if !vv.Low {
				continue
			}
			h := voltageHits[vv.BusID]
			h.count++
			if d := vv.Limit - vv.VmPU; d > h.depth {
				h.depth = d
			}
			voltageHits[vv.BusID] = h
		}
	}

	var cands []candidate
	for b, st := range overloadHits {
		kind := ReinforceCapacity
		if st.count <= 2 && st.worst > 120 {
			kind = RemedialSwitching
		}
		rec := Recommendation{Kind: kind, Branch: b, Score: float64(st.count)*10 + (st.worst - 100), Evidence: st.count}
		cands = append(cands, candidate{Recommendation: rec, from: st.from, to: st.to, worst: st.worst})
	}
	for bus, h := range voltageHits {
		rec := Recommendation{Kind: ReactiveSupport, BusID: bus, Score: float64(h.count)*8 + 400*h.depth, Evidence: h.count}
		cands = append(cands, candidate{Recommendation: rec, depth: h.depth})
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := &cands[i], &cands[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Branch != b.Branch {
			return a.Branch < b.Branch
		}
		return a.BusID < b.BusID
	})
	return cands
}
