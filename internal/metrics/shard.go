package metrics

import (
	"fmt"
	"sort"
	"strings"

	"parallax/internal/core"
	"parallax/internal/partition"
	"parallax/internal/tensor"
)

// ShardRoute describes one variable's live sharding for reporting: which
// synchronization method it uses and, for parameter-server variables,
// how its rows are split into partitions and which machine owns each.
// The session and parallax-info render these with FormatShardMap.
type ShardRoute struct {
	Var        string
	Method     string
	Partitions int
	// Rows[pi] is partition pi's row count; Servers[pi] its owning
	// machine. Both are empty for collective (replicated) routes.
	Rows    []int
	Servers []int
}

// ShardRoutes derives the reportable shard map from a plan's
// assignments: PS routes expand their row ranges partition by partition
// (tensor.PartitionRows, the layout the servers actually use),
// collective routes render as replicated. The session's live ShardMap
// and parallax-info's static plan view share this one translation.
func ShardRoutes(assignments []core.Assignment) []ShardRoute {
	routes := make([]ShardRoute, 0, len(assignments))
	for _, a := range assignments {
		sr := ShardRoute{Var: a.Name, Method: a.Method.String(), Partitions: a.Partitions}
		if a.Method == core.MethodPS {
			for _, rr := range tensor.PartitionRows(int(a.Rows), a.Partitions) {
				sr.Rows = append(sr.Rows, rr.Len())
			}
			sr.Servers = a.Servers
		}
		routes = append(routes, sr)
	}
	return routes
}

// maxShardEntries bounds how many per-partition entries one route line
// prints before eliding (a 128-way embedding would otherwise drown the
// report); the per-server row totals always cover every partition.
const maxShardEntries = 8

// FormatShardMap renders the per-route shard map: one line per variable
// with its partition→machine assignment and per-server row totals.
func FormatShardMap(routes []ShardRoute) string {
	var b strings.Builder
	b.WriteString("shard map:\n")
	for _, r := range routes {
		if len(r.Servers) == 0 {
			fmt.Fprintf(&b, "  %-24s %-14s replicated on every worker\n", r.Var, r.Method)
			continue
		}
		fmt.Fprintf(&b, "  %-24s %-14s", r.Var, fmt.Sprintf("%s x%d", r.Method, r.Partitions))
		shown := len(r.Servers)
		if shown > maxShardEntries {
			shown = maxShardEntries
		}
		start := 0
		for pi := 0; pi < shown; pi++ {
			fmt.Fprintf(&b, " p%d[%d,%d)->m%d", pi, start, start+r.Rows[pi], r.Servers[pi])
			start += r.Rows[pi]
		}
		if shown < len(r.Servers) {
			fmt.Fprintf(&b, " ... (+%d more)", len(r.Servers)-shown)
		}
		perServer := map[int]int{}
		maxSrv := 0
		for pi, srv := range r.Servers {
			perServer[srv] += r.Rows[pi]
			if srv > maxSrv {
				maxSrv = srv
			}
		}
		b.WriteString("  rows/server:")
		for m := 0; m <= maxSrv; m++ {
			if n, ok := perServer[m]; ok {
				fmt.Fprintf(&b, " m%d=%d", m, n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatPartitionDecision renders the §3.2 partition-count decision:
// whether P was fixed by configuration or found by the sampling search,
// and — for searched decisions — the sampled operating points, the
// fitted cost model θ, and the run budget consumed. res is nil for
// fixed decisions.
func FormatPartitionDecision(source string, p int, res *partition.SearchResult) string {
	if res == nil {
		return fmt.Sprintf("partitions: %d (%s)\n", p, source)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "partitions: %d (%s search, %d measurement runs)\n", p, source, res.Runs)
	samples := append([]partition.Sample(nil), res.Samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].P < samples[j].P })
	b.WriteString("  sampled:")
	for _, s := range samples {
		fmt.Fprintf(&b, " P=%d:%.4gs", s.P, s.IterTime)
	}
	b.WriteByte('\n')
	m := res.Model
	if m.Theta0 == 0 && m.Theta1 == 0 && m.Theta2 == 0 {
		b.WriteString("  fit: degenerate bracket, kept the best sampled point\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  fitted theta0=%.4g theta1=%.4g theta2=%.4g", m.Theta0, m.Theta1, m.Theta2)
	if crit, ok := m.CriticalP(); ok {
		fmt.Fprintf(&b, "  critical P*=%.1f", crit)
	}
	b.WriteByte('\n')
	return b.String()
}
