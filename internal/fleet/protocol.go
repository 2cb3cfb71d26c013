// Package fleet distributes contingency sweeps across worker processes.
//
// A Coordinator splits the outage list of an N-1 sweep into deterministic
// contiguous shards and posts them to workers over a small HTTP/JSON
// protocol (workers also verify N-2 candidate-pair shards); each Worker
// runs its shard with the engine's full artifact-threading fast path
// (shared Ybus, prebuilt topology, PTDF, ordering cache, pooled Newton
// contexts — warmed from the persistent artifact store when one is
// mounted) and returns the partial ResultSet. The coordinator merges
// partials at precomputed offsets, so the merged sweep is bit-identical
// to the single-process sweep regardless of worker count, shard
// completion order, retries or mid-sweep worker death. See README.md for
// the wire contract.
package fleet

import (
	"fmt"

	"gridmind/internal/contingency"
)

// ProtocolVersion is the shard wire-format version. A worker rejects any
// other version with 400, and the coordinator rejects mismatched
// responses, so a mixed-version fleet fails loudly instead of merging
// incompatible partials. Bump it whenever ShardRequest, ShardResponse or
// SweepOptions change shape or meaning.
const ProtocolVersion = 1

// Sweep kinds carried by ShardRequest.Kind.
const (
	KindN1 = "n1"
	KindN2 = "n2"
)

// SweepOptions is the wire subset of contingency.Options. One knob
// travels: dc_screen, which turns on the linear pre-screen of an N-1
// shard (contingency.Options.DCScreen); an N-2 shard never screens. The
// violation thresholds are the paper's fixed ones on both sides. The
// sweep pool and its outage base (Ybus, topology, PTDF, ordering cache)
// are process-local by design — every worker runs on its own engine's
// pool, warmed from the shared artifact store when available.
//
// Version 1 once also carried volt_low, volt_high, overload_pct,
// screen_threshold and no_warm_start. No coordinator ever set them, and
// all five were omitempty, so every request a coordinator can emit
// encodes byte-identically with or without them; ProtocolVersion stays 1.
type SweepOptions struct {
	DCScreen bool `json:"dc_screen,omitempty"`
}

// ShardRequest is one unit of sweep work, POSTed to a worker's /shard
// endpoint. Exactly one of Branches (KindN1) or Pairs (KindN2) is set.
// The same request may be posted more than once — after a timeout the
// coordinator cannot tell a dead worker from a slow one — so workers
// treat Key() as an idempotency key and replay the memoized response.
type ShardRequest struct {
	Version int    `json:"version"`
	SweepID string `json:"sweep_id"`
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Case    string `json:"case"`
	Kind    string `json:"kind"`

	// Branches is the N-1 outage subset of this shard (branch indices,
	// coordinator-enumerated so every worker sees the identical global
	// ordering split at the same offsets).
	Branches []int `json:"branches,omitempty"`
	// Pairs is the N-2 candidate subset of this shard.
	Pairs []contingency.N2Pair `json:"pairs,omitempty"`

	Opts SweepOptions `json:"opts"`
}

// Key is the shard's idempotency key: retries of the same shard of the
// same sweep carry the same key and must produce the same response.
func (r *ShardRequest) Key() string {
	return fmt.Sprintf("%s/%d", r.SweepID, r.Shard)
}

// validate rejects malformed requests before any engine work.
func (r *ShardRequest) validate() error {
	if r.Version != ProtocolVersion {
		return fmt.Errorf("fleet: protocol version %d, worker speaks %d", r.Version, ProtocolVersion)
	}
	if r.SweepID == "" || r.Case == "" {
		return fmt.Errorf("fleet: shard request needs sweep_id and case")
	}
	switch r.Kind {
	case KindN1:
		if len(r.Branches) == 0 || len(r.Pairs) != 0 {
			return fmt.Errorf("fleet: %s shard must carry branches only", KindN1)
		}
	case KindN2:
		if len(r.Pairs) == 0 || len(r.Branches) != 0 {
			return fmt.Errorf("fleet: %s shard must carry pairs only", KindN2)
		}
	default:
		return fmt.Errorf("fleet: unknown sweep kind %q", r.Kind)
	}
	return nil
}

// ShardResponse is a worker's partial ResultSet for one shard. Outages
// preserves the request's Branches/Pairs order, so the coordinator can
// splice it into the merged sweep at the shard's precomputed offset.
// Floats survive the JSON round trip exactly: encoding/json emits the
// shortest representation that parses back to the identical float64, so
// the merge is bit-preserving, not approximately so.
type ShardResponse struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Worker  string `json:"worker,omitempty"`

	CaseName          string                     `json:"case_name"`
	Outages           []contingency.OutageResult `json:"outages"`
	Screened          int                        `json:"screened"`
	BaseMaxLoadingPct float64                    `json:"base_max_loading_pct"`
	BaseMinVoltagePU  float64                    `json:"base_min_voltage_pu"`

	// Warmed reports whether the worker's engine was warmed from the
	// artifact store before this shard (observability only; does not
	// affect the merge).
	Warmed bool `json:"warmed,omitempty"`
}

// shardRange is one contiguous slice [Off, Off+Len) of the global
// outage list.
type shardRange struct {
	Off, Len int
}

// splitContiguous cuts n items into at most shards contiguous ranges,
// sizes as equal as possible (the first n%shards ranges get one extra),
// empty ranges dropped. The split depends only on (n, shards), so every
// run of the same sweep shards identically — the idempotency keys and
// merge offsets are stable across retries and coordinator restarts.
func splitContiguous(n, shards int) []shardRange {
	if n <= 0 || shards <= 0 {
		return nil
	}
	if shards > n {
		shards = n
	}
	out := make([]shardRange, 0, shards)
	base, rem := n/shards, n%shards
	off := 0
	for i := 0; i < shards; i++ {
		ln := base
		if i < rem {
			ln++
		}
		out = append(out, shardRange{Off: off, Len: ln})
		off += ln
	}
	return out
}
