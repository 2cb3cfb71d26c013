// Package cases provides the IEEE test-case library used throughout the
// paper's evaluation (Table 2): authentic embedded data for the 14- and
// 30-bus systems and deterministically generated synthetic networks with
// the exact Table 2 component counts for the 57-, 118- and 300-bus systems.
//
// The original PSTCA archive is an external dataset and this module is
// offline, so the larger cases are built constructively (see generator.go)
// around a guaranteed-solvable operating point; the substitution and its
// consequences are documented in DESIGN.md §1.
package cases

import (
	"fmt"

	"gridmind/internal/model"
)

// Names lists the supported case names in complexity order.
func Names() []string {
	return []string{"case14", "case30", "case57", "case118", "case300"}
}

// Load returns a fresh copy of the named case. Supported names are
// "case14", "case30", "case57", "case118", "case300" (aliases: "ieee14",
// "14", etc.).
func Load(name string) (*model.Network, error) {
	switch Canonical(name) {
	case "case14":
		return Case14(), nil
	case "case30":
		return Case30(), nil
	case "case57":
		return Synthetic(57)
	case "case118":
		return Synthetic(118)
	case "case300":
		return Synthetic(300)
	case "case3000":
		// Fleet-scale synthetic case; deliberately absent from Names() so
		// the paper's Table 2 inventory stays the five IEEE cases.
		return Synthetic(3000)
	default:
		return nil, fmt.Errorf("cases: unknown case %q (supported: %v)", name, Names())
	}
}

// Canonical maps user input ("IEEE 118", "118", "case118") to the
// canonical case name, or returns "" when unrecognized.
func Canonical(name string) string {
	var digits []rune
	for _, r := range name {
		if r >= '0' && r <= '9' {
			digits = append(digits, r)
		}
	}
	switch string(digits) {
	case "14":
		return "case14"
	case "30":
		return "case30"
	case "57":
		return "case57"
	case "118":
		return "case118"
	case "300":
		return "case300"
	case "3000":
		return "case3000"
	}
	return ""
}

// MustLoad is Load for tests and examples; it panics on error.
func MustLoad(name string) *model.Network {
	n, err := Load(name)
	if err != nil {
		panic(err)
	}
	return n
}

// Summaries returns Table 2: component counts for every supported case.
func Summaries() ([]model.Summary, error) {
	out := make([]model.Summary, 0, len(Names()))
	for _, name := range Names() {
		n, err := Load(name)
		if err != nil {
			return nil, err
		}
		out = append(out, n.Summarize())
	}
	return out, nil
}
