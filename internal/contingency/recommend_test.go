package contingency

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gridmind/internal/cases"
)

func TestRecommendFromSweep(t *testing.T) {
	n := cases.MustLoad("case118")
	base := solveBase(t, n)
	rs, err := Analyze(n, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := rs.Recommend(10)
	if len(recs) == 0 {
		t.Fatal("no recommendations from an insecure case")
	}
	if len(recs) > 10 {
		t.Fatalf("limit ignored: %d", len(recs))
	}
	// Ordered by score.
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatal("recommendations not sorted by score")
		}
	}
	// Every recommendation carries evidence and a rationale.
	for _, r := range recs {
		if r.Evidence == 0 || r.Rationale == "" {
			t.Fatalf("recommendation lacks audit trail: %+v", r)
		}
		switch r.Kind {
		case ReinforceCapacity, RemedialSwitching:
			if r.Rationale == "" || !strings.Contains(r.Rationale, "branch") {
				t.Fatalf("thermal recommendation rationale: %q", r.Rationale)
			}
		case ReactiveSupport:
			if !strings.Contains(r.Rationale, "voltage") {
				t.Fatalf("voltage recommendation rationale: %q", r.Rationale)
			}
		default:
			t.Fatalf("unknown kind %q", r.Kind)
		}
	}
}

func TestRecommendClassification(t *testing.T) {
	// Recurrent moderate overloads → reinforcement; rare severe → switching.
	rs := &ResultSet{Outages: []OutageResult{
		{Converged: true, Overloads: []BranchLoading{{Branch: 1, LoadingPct: 108, FromBusID: 1, ToBusID: 2}}},
		{Converged: true, Overloads: []BranchLoading{{Branch: 1, LoadingPct: 106, FromBusID: 1, ToBusID: 2}}},
		{Converged: true, Overloads: []BranchLoading{{Branch: 1, LoadingPct: 111, FromBusID: 1, ToBusID: 2}}},
		{Converged: true, Overloads: []BranchLoading{{Branch: 7, LoadingPct: 170, FromBusID: 5, ToBusID: 6}}},
	}}
	recs := rs.Recommend(0)
	var kinds = map[int]RecommendationKind{}
	for _, r := range recs {
		if r.Branch != 0 {
			kinds[r.Branch] = r.Kind
		}
	}
	if kinds[1] != ReinforceCapacity {
		t.Fatalf("branch 1 classified %q, want reinforcement", kinds[1])
	}
	if kinds[7] != RemedialSwitching {
		t.Fatalf("branch 7 classified %q, want switching", kinds[7])
	}
}

func TestRecommendVoltage(t *testing.T) {
	rs := &ResultSet{Outages: []OutageResult{
		{Converged: true, VoltViols: []VoltageViolation{{BusID: 30, VmPU: 0.92, Limit: 0.94, Low: true}}},
		{Converged: true, VoltViols: []VoltageViolation{{BusID: 30, VmPU: 0.93, Limit: 0.94, Low: true}}},
		// High-voltage violations do not produce reactive-support advice.
		{Converged: true, VoltViols: []VoltageViolation{{BusID: 9, VmPU: 1.08, Limit: 1.06, Low: false}}},
	}}
	recs := rs.Recommend(0)
	if len(recs) != 1 {
		t.Fatalf("recommendations %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != ReactiveSupport || r.BusID != 30 || r.Evidence != 2 {
		t.Fatalf("recommendation %+v", r)
	}
}

func TestRecommendEmptySweep(t *testing.T) {
	rs := &ResultSet{}
	if recs := rs.Recommend(5); len(recs) != 0 {
		t.Fatalf("secure sweep produced %d recommendations", len(recs))
	}
}

// recommendRef formats a rationale for every candidate, then sorts and
// truncates. Recommend ranks first and formats only the rows it returns;
// the two must agree row for row.
func recommendRef(rs *ResultSet, limit int) []Recommendation {
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
	for i := range rs.Outages {
		o := &rs.Outages[i]
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

	var out []Recommendation
	for b, st := range overloadHits {
		score := float64(st.count)*10 + (st.worst - 100)
		kind := ReinforceCapacity
		rationale := fmt.Sprintf(
			"branch %d (%d-%d) overloads under %d different outages (worst %.0f%%); add parallel capacity or uprate the corridor",
			b, st.from, st.to, st.count, st.worst)
		if st.count <= 2 && st.worst > 120 {
			kind = RemedialSwitching
			rationale = fmt.Sprintf(
				"branch %d (%d-%d) overloads only under %d specific outage(s) but severely (%.0f%%); evaluate post-contingency switching instead of reinforcement",
				b, st.from, st.to, st.count, st.worst)
		}
		out = append(out, Recommendation{
			Kind: kind, Branch: b, Score: score, Evidence: st.count, Rationale: rationale,
		})
	}
	for bus, h := range voltageHits {
		out = append(out, Recommendation{
			Kind:     ReactiveSupport,
			BusID:    bus,
			Score:    float64(h.count)*8 + 400*h.depth,
			Evidence: h.count,
			Rationale: fmt.Sprintf(
				"bus %d drops below its voltage floor under %d outage(s) (deepest excursion %.3f p.u.); add shunt compensation or local reactive reserves",
				bus, h.count, h.depth),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Branch != out[j].Branch {
			return out[i].Branch < out[j].Branch
		}
		return out[i].BusID < out[j].BusID
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func TestRecommendMatchesReference(t *testing.T) {
	for _, name := range []string{"case30", "case57", "case118"} {
		n := cases.MustLoad(name)
		rs, err := Analyze(n, solveBase(t, n), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recommendRef(rs, 0)) == 0 {
			t.Fatalf("%s: no recommendations to compare", name)
		}
		for _, limit := range []int{0, 1, 3, 100} {
			if got, want := rs.Recommend(limit), recommendRef(rs, limit); !reflect.DeepEqual(got, want) {
				t.Errorf("%s limit %d:\n got %+v\nwant %+v", name, limit, got, want)
			}
		}
	}
}
