package ptdf

import (
	"math"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

func TestPTDFRowProperties(t *testing.T) {
	n := cases.MustLoad("case30")
	m, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	slack := n.SlackBus()
	for k, br := range n.Branches {
		if !br.InService || br.X == 0 {
			continue
		}
		// Injection at the slack itself shifts nothing (reference).
		if m.PTDF[k][slack] != 0 {
			t.Fatalf("branch %d: PTDF at slack = %v", k, m.PTDF[k][slack])
		}
		for i := range n.Buses {
			if v := m.PTDF[k][i]; math.Abs(v) > 1.0001 || math.IsNaN(v) {
				t.Fatalf("branch %d bus %d: PTDF %v out of [-1, 1]", k, i, v)
			}
		}
	}
}

func TestPTDFPredictsDCFlowChange(t *testing.T) {
	// Exactness check: for the DC model, PTDF-predicted flow changes
	// match a re-solved DC power flow after moving injection.
	n := cases.MustLoad("case30")
	m, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	base, err := powerflow.Solve(n, powerflow.Options{Algorithm: powerflow.DC})
	if err != nil {
		t.Fatal(err)
	}
	// Add 10 MW of load at bus index 20 (withdrawal = negative injection).
	pert := n.Clone()
	pert.Loads = append(pert.Loads, model.Load{Bus: 20, P: 10, InService: true})
	after, err := powerflow.Solve(pert, powerflow.Options{Algorithm: powerflow.DC})
	if err != nil {
		t.Fatal(err)
	}
	for k, br := range n.Branches {
		if !br.InService || br.X == 0 {
			continue
		}
		predicted := base.Flows[k].FromP + m.PTDF[k][20]*(-10)
		if math.Abs(predicted-after.Flows[k].FromP) > 1e-6 {
			t.Fatalf("branch %d: predicted %v, actual %v", k, predicted, after.Flows[k].FromP)
		}
	}
}

func TestLODFPredictsDCPostOutageFlows(t *testing.T) {
	n := cases.MustLoad("case30")
	m, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	base, err := powerflow.Solve(n, powerflow.Options{Algorithm: powerflow.DC})
	if err != nil {
		t.Fatal(err)
	}
	pre := make([]float64, len(n.Branches))
	for k := range n.Branches {
		pre[k] = base.Flows[k].FromP
	}
	// Trip branch 2 (2-4, a meshed line) and compare against re-solved DC.
	const mm = 2
	predicted, err := m.PostOutageFlows(pre, mm)
	if err != nil {
		t.Fatal(err)
	}
	post := n.Clone()
	post.Branches[mm].InService = false
	after, err := powerflow.Solve(post, powerflow.Options{Algorithm: powerflow.DC})
	if err != nil {
		t.Fatal(err)
	}
	for k, br := range n.Branches {
		if !br.InService || br.X == 0 || k == mm {
			continue
		}
		if math.Abs(predicted[k]-after.Flows[k].FromP) > 1e-6 {
			t.Fatalf("branch %d: LODF predicted %v, DC resolve %v", k, predicted[k], after.Flows[k].FromP)
		}
	}
}

func TestLODFDiagonalAndRadial(t *testing.T) {
	n := cases.MustLoad("case14")
	m, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	// Meshed branch: diagonal is -1 by convention.
	col0, err := m.LODFCol(0)
	if err != nil {
		t.Fatal(err)
	}
	if col0[0] != -1 {
		t.Fatalf("LODF[0][0] = %v", col0[0])
	}
	// Branch 13 (7-8) is radial in case14: LODFs undefined -> islanding.
	pre := make([]float64, len(n.Branches))
	if _, err := m.PostOutageFlows(pre, 13); err != ErrIslanding {
		t.Fatalf("radial outage err = %v, want ErrIslanding", err)
	}
}

func TestBuildRequiresSlack(t *testing.T) {
	n := cases.MustLoad("case14")
	n.Buses[0].Type = model.PQ
	if _, err := Build(n); err == nil {
		t.Fatal("expected error without slack")
	}
}

func TestPostOutageFlowsRange(t *testing.T) {
	n := cases.MustLoad("case14")
	m, _ := Build(n)
	if _, err := m.PostOutageFlows(nil, -1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := m.PostOutageFlows(nil, 999); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}
