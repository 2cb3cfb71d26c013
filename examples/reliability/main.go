// Reliability study: drive the contingency-analysis engine directly via
// the public solver API (no agent in the loop) — the paper's T-1
// enumeration, criticality ranking, and reinforcement recommendations.
// With -n2, the N-1 critical list additionally seeds an N-2 double-outage
// screening pass (zero-clone AC verification of every seeded pair).
package main

import (
	"flag"
	"fmt"
	"log"

	"gridmind"
	"gridmind/internal/contingency"
)

func main() {
	n2 := flag.Bool("n2", false, "seed N-2 pairs from the N-1 critical list and screen them")
	caseName := flag.String("case", "case118", "IEEE case to analyze")
	flag.Parse()

	net, err := gridmind.LoadCase(*caseName)
	if err != nil {
		log.Fatal(err)
	}
	base, err := gridmind.SolvePowerFlow(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base case: %d buses, losses %.1f MW, min voltage %.4f p.u.\n\n",
		net.NumBuses(), base.LossP, base.MinVm)

	rs, err := gridmind.AnalyzeContingencies(net, base)
	if err != nil {
		log.Fatal(err)
	}
	stats := rs.Summarize()
	fmt.Printf("N-1 sweep: %d outages — %d secure, %d with overloads, %d islanding, %d unsolved\n\n",
		stats.Total, stats.Secure, stats.WithOverload, stats.Islanding, stats.Unsolved)

	fmt.Println("top-5 critical elements (composite ranking):")
	for rank, o := range rs.Top(5, contingency.Composite) {
		fmt.Printf("  %d. %s\n", rank+1, o.Describe())
	}

	fmt.Println("\ntop-5 under the thermal-first ranking (the divergent analysis style):")
	for rank, o := range rs.Top(5, contingency.ThermalFirst) {
		fmt.Printf("  %d. branch %d (%d-%d): max loading %.0f%%\n",
			rank+1, o.Branch, o.FromBusID, o.ToBusID, o.MaxLoadingPct)
	}

	// Reinforcement guidance mirrors §3.2.3: corridors appearing in many
	// post-contingency overload lists are the reinforcement candidates.
	hits := map[int]int{}
	for _, o := range rs.Outages {
		for _, ov := range o.Overloads {
			hits[ov.Branch]++
		}
	}
	best, n := -1, 0
	for b, c := range hits {
		if c > n {
			best, n = b, c
		}
	}
	if best >= 0 {
		br := net.Branches[best]
		fmt.Printf("\nrecurring bottleneck: branch %d (%d-%d) overloads under %d different outages — reinforce this corridor first\n",
			best, net.Buses[br.From].ID, net.Buses[br.To].ID, n)
	}

	if !*n2 {
		return
	}
	// N-2 screening: pairs seeded from the critical list, each
	// AC-verified on the zero-clone view path.
	n2rs, err := contingency.AnalyzeN2(net, base, rs, contingency.N2Options{})
	if err != nil {
		log.Fatal(err)
	}
	n2stats := n2rs.Summarize()
	fmt.Printf("\nN-2 screening: %d candidate pairs — %d islanding, %d with overloads, %d unsolved\n\n",
		n2stats.Total, n2stats.Islanding, n2stats.WithOverload, n2stats.Unsolved)
	fmt.Println("top-5 critical double outages:")
	for rank, o := range n2rs.Top(5, contingency.Composite) {
		fmt.Printf("  %d. %s\n", rank+1, o.Describe())
	}
}
