package obs

import (
	"sort"
	"time"
)

// ClusterNode is one node's most recent telemetry report as the tracker
// sees it, plus the tracker-side freshness judgment.
type ClusterNode struct {
	ID   uint64 `json:"id"`
	Addr string `json:"addr"`
	// AgeMillis is how long ago the report arrived; Fresh is whether that
	// age is within the staleness horizon (3 reporting intervals).
	AgeMillis int64 `json:"age_ms"`
	Fresh     bool  `json:"fresh"`

	Rank      int     `json:"rank"`
	MaxRank   int     `json:"max_rank"`
	Progress  float64 `json:"progress"`
	GensDone  int     `json:"gens_done"`
	TotalGens int     `json:"total_gens"`
	Complete  bool    `json:"complete"`
	// GenRanks is the node's rank vector, aligned with the session's
	// canonical generation order.
	GenRanks []int `json:"gen_ranks,omitempty"`

	Received   uint64 `json:"received"`
	Innovative uint64 `json:"innovative"`
	Redundant  uint64 `json:"redundant"`
	Complaints uint64 `json:"complaints"`
	// LeaseRenewals counts liveness leases the node has sent. QueueDepth
	// mirrors the report field, which is always 0 (nodes decode inline).
	LeaseRenewals uint64 `json:"lease_renewals"`
	QueueDepth    int    `json:"queue_depth"`

	// Decode-delay quantiles (end-to-end, source emission to decode) in
	// nanoseconds, and mean coding overhead in permille (1000 = no waste).
	DelayP50Nanos    int64 `json:"delay_p50_ns"`
	DelayP90Nanos    int64 `json:"delay_p90_ns"`
	DelayP99Nanos    int64 `json:"delay_p99_ns"`
	OverheadPermille int   `json:"overhead_permille"`
}

// GenerationHealth is the fleet-wide view of one generation: how many
// reporting nodes decoded it and who is lagging. Stragglers are listed
// only once a majority of reporters decoded the generation — before that,
// an undecoded generation is just "in flight", not a laggard signal.
type GenerationHealth struct {
	Index int `json:"index"`
	// Gen is the (possibly layer-namespaced) generation id.
	Gen       uint32 `json:"gen"`
	Decoded   int    `json:"decoded"`
	Reporting int    `json:"reporting"`
	// StragglerIDs are nodes still short of full rank while a majority of
	// reporters have decoded.
	StragglerIDs []uint64 `json:"straggler_ids,omitempty"`
}

// ClusterSnapshot is the tracker-aggregated overlay-wide telemetry view:
// every node's latest report, per-generation decode status with straggler
// detection, and fleet-wide decode-delay quantiles. It is what
// Server.ClusterSnapshot returns and the /debug/cluster endpoint serves.
type ClusterSnapshot struct {
	At time.Time `json:"at"`
	// Overlay is the tracker's matrix-M health, for context.
	Overlay *OverlayHealth `json:"overlay,omitempty"`
	// StaleAfterMillis is the freshness horizon applied to Nodes[].Fresh.
	StaleAfterMillis int64              `json:"stale_after_ms"`
	Nodes            []ClusterNode      `json:"nodes"`
	Generations      []GenerationHealth `json:"generations,omitempty"`
	// SlowestID is the reporting node with the largest p50 decode delay
	// (0 when no node has reported a delay yet).
	SlowestID uint64 `json:"slowest_id,omitempty"`
	// Fleet-wide decode-delay quantiles, computed over every reporting
	// node's median delay (a quantile-of-medians approximation — the raw
	// per-generation samples stay node-local to keep reports compact).
	FleetDelayP50Nanos int64 `json:"fleet_delay_p50_ns"`
	FleetDelayP90Nanos int64 `json:"fleet_delay_p90_ns"`
	FleetDelayP99Nanos int64 `json:"fleet_delay_p99_ns"`
	// Trace digests the dissemination-tracing state (worst path, deepest
	// hop) when trace sampling is on and at least one generation has been
	// assembled; see /debug/trace for the full trees.
	Trace *TraceSummary `json:"trace,omitempty"`
	// Links digests the fleet link matrix (worst lossy edges, worst peer,
	// slowest RTT) when link scorecards have been reported; see
	// /debug/links for every edge.
	Links *LinkSummary `json:"links,omitempty"`
}

// Node returns the report for the given overlay id, or nil.
func (s *ClusterSnapshot) Node(id uint64) *ClusterNode {
	for i := range s.Nodes {
		if s.Nodes[i].ID == id {
			return &s.Nodes[i]
		}
	}
	return nil
}

// Quantile returns the q-quantile (q in [0,1]) of samples by nearest-rank
// on a sorted copy; 0 when samples is empty. Shared by the node-side
// report builder and the tracker-side fleet aggregation.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
