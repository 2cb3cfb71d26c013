package report

import (
	"bytes"
	"strings"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/opf"
	"gridmind/internal/powerflow"
	"gridmind/internal/session"
)

func TestSolutionReport(t *testing.T) {
	n := cases.MustLoad("case14")
	sol, err := opf.SolveACOPF(n, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Solution(&buf, n, sol)
	out := buf.String()
	for _, want := range []string{"case14", "objective cost", "unit dispatch", "LMP spread", "p.u. max mismatch"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	// All five units listed.
	if strings.Count(out, "\n    ") < 5 {
		t.Error("dispatch table incomplete")
	}
}

func TestSweepReport(t *testing.T) {
	n := cases.MustLoad("case30")
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := contingency.Analyze(n, base, contingency.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Sweep(&buf, rs, 3)
	out := buf.String()
	for _, want := range []string{"N-1 contingency sweep", "top-3 critical", "severity"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

func TestQualityReport(t *testing.T) {
	n := cases.MustLoad("case30")
	sol, err := opf.SolveACOPF(n, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := opf.AssessQuality(n, sol)
	var buf bytes.Buffer
	QualityReport(&buf, q)
	if !strings.Contains(buf.String(), "/10") {
		t.Fatalf("quality report: %s", buf.String())
	}
}

func TestSessionReport(t *testing.T) {
	ctx := session.NewWithEngine(nil, nil)
	var buf bytes.Buffer
	Session(&buf, ctx)
	if !strings.Contains(buf.String(), "no case loaded") {
		t.Fatal("empty session not reported")
	}
	if _, err := ctx.LoadCase("case14"); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Apply(session.Modification{Kind: session.ModScaleLoad, Factor: 1.01, Note: "stress test"}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	Session(&buf, ctx)
	out := buf.String()
	for _, want := range []string{"case14", "stress test", "provenance", "contingency cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("session report lacks %q:\n%s", want, out)
		}
	}
}

func TestBanner(t *testing.T) {
	var buf bytes.Buffer
	Banner(&buf)
	for _, want := range []string{":report", ":save", ":load"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("banner lacks %q", want)
		}
	}
}
