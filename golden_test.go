package gridmind_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
	"gridmind/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/outputs.json from this tree's study outputs")

const goldenPath = "testdata/golden/outputs.json"

// wiring is how a study gets its outage base: one-shot (nil Pool, the
// study builds its own) or engine-wired (the state's engine sweep pool).
type wiring struct {
	label string
	cont  func() contingency.Options
	scen  func() scenario.Options
}

func wirings(eng *engine.Engine, name string) [2]wiring {
	return [2]wiring{
		{"oneshot", func() contingency.Options { return contingency.Options{} }, func() scenario.Options { return scenario.Options{} }},
		{"engine",
			func() contingency.Options { return contingency.Options{Pool: eng.SweepPool(name)} },
			func() scenario.Options { return scenario.Options{Pool: eng.SweepPool(name)} }},
	}
}

// goldenStudy is one configuration of the corpus: run returns the study's
// output, whose JSON is hashed.
type goldenStudy struct {
	name, state string
	run         func(w wiring) (any, error)
}

func goldenStudies(t *testing.T, eng *engine.Engine) []goldenStudy {
	t.Helper()
	var studies []goldenStudy
	load := func(name string) (*model.Network, *powerflow.Result) {
		n, err := eng.Pristine(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := eng.BasePF(name, n)
		if err != nil || !base.Converged {
			t.Fatalf("%s base power flow: %v", name, err)
		}
		return n, base
	}
	for _, name := range []string{"case14", "case30", "case57", "case118", "case300"} {
		n, base := load(name)
		for _, workers := range []int{1, 2} {
			for _, screen := range []bool{false, true} {
				studies = append(studies, goldenStudy{
					name:  fmt.Sprintf("n1/%s/workers=%d/dcscreen=%t", name, workers, screen),
					state: name,
					run: func(w wiring) (any, error) {
						opts := w.cont()
						opts.Workers, opts.DCScreen = workers, screen
						return contingency.Analyze(n, base, opts)
					},
				})
			}
		}
	}
	for _, name := range []string{"case30", "case57"} {
		n, base := load(name)
		studies = append(studies,
			goldenStudy{name: "gen/" + name, state: name, run: func(w wiring) (any, error) {
				opts := w.cont()
				opts.Workers = 2
				return contingency.AnalyzeGenOutages(n, opts)
			}},
			goldenStudy{name: "n2/" + name + "/maxpairs=200", state: name, run: func(w wiring) (any, error) {
				opts := w.cont()
				opts.Workers = 2
				n1, err := contingency.Analyze(n, base, opts)
				if err != nil {
					return nil, err
				}
				return contingency.AnalyzeN2(n, base, n1, contingency.N2Options{Options: opts, MaxPairs: 200})
			}},
			goldenStudy{name: "mc/" + name + "/samples=64/seed=2026", state: name, run: func(w wiring) (any, error) {
				opts := w.scen()
				opts.Workers = 2
				return scenario.RunMC(n, base, scenario.MCOptions{
					Samples: 64, Seed: 2026, BranchOutageProb: 0.01, GenOutageProb: 0.005, LoadSigma: 0.03,
					Cascade: opts,
				})
			}},
		)
		for _, screen := range []bool{false, true} {
			studies = append(studies, goldenStudy{
				name:  fmt.Sprintf("cascade/%s/dcscreen=%t", name, screen),
				state: name,
				run: func(w wiring) (any, error) {
					opts := w.scen()
					opts.Workers, opts.DCScreen = 2, screen
					return scenario.Sweep(n, base, opts)
				},
			})
		}
	}
	return studies
}

// TestGoldenOutputs pins every outage study's output to the sha256 of its
// JSON in testdata/golden/outputs.json: N-1 on case14–300 at Workers 1/2
// with and without the DC screen, generator sweeps, N-2 (MaxPairs 200),
// cascade sweeps with and without the screen, and Monte Carlo (64
// samples, seed 2026) on case30/57. Each configuration runs one-shot and
// engine-wired, and the two must hash the same. Run with -update to
// rewrite the corpus; a change that moves a hash says which and why.
func TestGoldenOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	eng := engine.New()
	got := make(map[string]string)
	for _, s := range goldenStudies(t, eng) {
		var hashes [2]string
		for i, w := range wirings(eng, s.state) {
			out, err := s.run(w)
			if err != nil {
				t.Fatalf("%s (%s): %v", s.name, w.label, err)
			}
			body, err := json.Marshal(out)
			if err != nil {
				t.Fatalf("%s (%s): %v", s.name, w.label, err)
			}
			sum := sha256.Sum256(body)
			hashes[i] = hex.EncodeToString(sum[:])
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: one-shot %s and engine-wired %s outputs differ", s.name, hashes[0][:12], hashes[1][:12])
		}
		got[s.name] = hashes[0]
	}

	if *updateGolden {
		body, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(body, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record the corpus)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: output hash %.12s, corpus %.12s", name, got[name], want[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: not in the corpus (run with -update)", name)
		}
	}
}
