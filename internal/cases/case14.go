package cases

import (
	"math"

	"gridmind/internal/model"
)

// rawBus mirrors the MATPOWER bus-table layout:
// bus_i type Pd Qd Gs Bs Vm Va(deg) Vmax Vmin
type rawBus struct {
	id                 int
	typ                model.BusType
	pd, qd, gs, bs     float64
	vm, vaDeg          float64
	vmax, vmin, baseKV float64
}

// rawGen mirrors the MATPOWER gen+gencost layout:
// bus Pg Qmax Qmin Vg Pmax Pmin c2 c1 c0
type rawGen struct {
	bus            int
	pg, qmax, qmin float64
	vg, pmax, pmin float64
	c2, c1, c0     float64
}

// rawBranch mirrors the MATPOWER branch layout:
// fbus tbus r x b rateA ratio shift(deg)
type rawBranch struct {
	from, to       int
	r, x, b, rateA float64
	ratio, shiftDg float64
}

// buildNetwork converts raw MATPOWER-style tables into a model.Network.
func buildNetwork(name string, baseMVA float64, buses []rawBus, gens []rawGen, branches []rawBranch) *model.Network {
	n := &model.Network{Name: name, BaseMVA: baseMVA}
	idx := make(map[int]int, len(buses))
	for i, rb := range buses {
		idx[rb.id] = i
		n.Buses = append(n.Buses, model.Bus{
			ID: rb.id, Type: rb.typ,
			Vm: rb.vm, Va: rb.vaDeg * math.Pi / 180,
			VMin: rb.vmin, VMax: rb.vmax,
			GS: rb.gs, BS: rb.bs, BaseKV: rb.baseKV,
		})
		if rb.pd != 0 || rb.qd != 0 {
			n.Loads = append(n.Loads, model.Load{Bus: i, P: rb.pd, Q: rb.qd, InService: true})
		}
	}
	for _, rg := range gens {
		n.Gens = append(n.Gens, model.Generator{
			Bus: idx[rg.bus], P: rg.pg,
			PMin: rg.pmin, PMax: rg.pmax,
			QMin: rg.qmin, QMax: rg.qmax,
			VSetpoint: rg.vg,
			Cost:      model.CostCurve{C2: rg.c2, C1: rg.c1, C0: rg.c0},
			InService: true,
		})
	}
	for _, rb := range branches {
		n.Branches = append(n.Branches, model.Branch{
			From: idx[rb.from], To: idx[rb.to],
			R: rb.r, X: rb.x, B: rb.b,
			RateMVA:       rb.rateA,
			Tap:           rb.ratio,
			Shift:         rb.shiftDg * math.Pi / 180,
			InService:     true,
			IsTransformer: rb.ratio != 0,
		})
	}
	return n
}

// Case14 returns the IEEE 14-bus test system with the standard MATPOWER
// data: 14 buses, 5 generators, 11 loads, 17 AC lines and 3 transformers
// (Table 2, row 1). The case ships without thermal ratings, so its
// branches report no loading percentage.
func Case14() *model.Network {
	buses := []rawBus{
		{1, model.Slack, 0, 0, 0, 0, 1.060, 0, 1.06, 0.94, 0},
		{2, model.PV, 21.7, 12.7, 0, 0, 1.045, -4.98, 1.06, 0.94, 0},
		{3, model.PV, 94.2, 19.0, 0, 0, 1.010, -12.72, 1.06, 0.94, 0},
		{4, model.PQ, 47.8, -3.9, 0, 0, 1.019, -10.33, 1.06, 0.94, 0},
		{5, model.PQ, 7.6, 1.6, 0, 0, 1.020, -8.78, 1.06, 0.94, 0},
		{6, model.PV, 11.2, 7.5, 0, 0, 1.070, -14.22, 1.06, 0.94, 0},
		{7, model.PQ, 0, 0, 0, 0, 1.062, -13.37, 1.06, 0.94, 0},
		{8, model.PV, 0, 0, 0, 0, 1.090, -13.36, 1.06, 0.94, 0},
		{9, model.PQ, 29.5, 16.6, 0, 19, 1.056, -14.94, 1.06, 0.94, 0},
		{10, model.PQ, 9.0, 5.8, 0, 0, 1.051, -15.10, 1.06, 0.94, 0},
		{11, model.PQ, 3.5, 1.8, 0, 0, 1.057, -14.79, 1.06, 0.94, 0},
		{12, model.PQ, 6.1, 1.6, 0, 0, 1.055, -15.07, 1.06, 0.94, 0},
		{13, model.PQ, 13.5, 5.8, 0, 0, 1.050, -15.16, 1.06, 0.94, 0},
		{14, model.PQ, 14.9, 5.0, 0, 0, 1.036, -16.04, 1.06, 0.94, 0},
	}
	gens := []rawGen{
		{1, 232.4, 10, 0, 1.060, 332.4, 0, 0.0430292599, 20, 0},
		{2, 40.0, 50, -40, 1.045, 140, 0, 0.25, 20, 0},
		{3, 0, 40, 0, 1.010, 100, 0, 0.01, 40, 0},
		{6, 0, 24, -6, 1.070, 100, 0, 0.01, 40, 0},
		{8, 0, 24, -6, 1.090, 100, 0, 0.01, 40, 0},
	}
	branches := []rawBranch{
		{1, 2, 0.01938, 0.05917, 0.0528, 0, 0, 0},
		{1, 5, 0.05403, 0.22304, 0.0492, 0, 0, 0},
		{2, 3, 0.04699, 0.19797, 0.0438, 0, 0, 0},
		{2, 4, 0.05811, 0.17632, 0.0340, 0, 0, 0},
		{2, 5, 0.05695, 0.17388, 0.0346, 0, 0, 0},
		{3, 4, 0.06701, 0.17103, 0.0128, 0, 0, 0},
		{4, 5, 0.01335, 0.04211, 0.0, 0, 0, 0},
		{4, 7, 0.0, 0.20912, 0.0, 0, 0.978, 0},
		{4, 9, 0.0, 0.55618, 0.0, 0, 0.969, 0},
		{5, 6, 0.0, 0.25202, 0.0, 0, 0.932, 0},
		{6, 11, 0.09498, 0.19890, 0.0, 0, 0, 0},
		{6, 12, 0.12291, 0.25581, 0.0, 0, 0, 0},
		{6, 13, 0.06615, 0.13027, 0.0, 0, 0, 0},
		{7, 8, 0.0, 0.17615, 0.0, 0, 0, 0},
		{7, 9, 0.0, 0.11001, 0.0, 0, 0, 0},
		{9, 10, 0.03181, 0.08450, 0.0, 0, 0, 0},
		{9, 14, 0.12711, 0.27038, 0.0, 0, 0, 0},
		{10, 11, 0.08205, 0.19207, 0.0, 0, 0, 0},
		{12, 13, 0.22092, 0.19988, 0.0, 0, 0, 0},
		{13, 14, 0.17093, 0.34802, 0.0, 0, 0, 0},
	}
	return buildNetwork("case14", 100, buses, gens, branches)
}
