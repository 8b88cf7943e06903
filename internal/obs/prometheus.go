package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of the registry:
// counters and gauges one sample each, histograms as summaries with
// precomputed 0.5/0.9/0.99 quantiles plus _sum and _count. Metric names
// are sanitized to the Prometheus charset (dots become underscores), and
// output is sorted by name so scrapes — and golden tests — are stable.

// promName sanitizes a registry metric name for Prometheus: every rune
// outside [a-zA-Z0-9_:] becomes '_', and a leading digit is prefixed.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every metric in the Prometheus text exposition
// format, sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type metric struct {
		name string
		body string
	}
	r.mu.Lock()
	ms := make([]metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		pn := promName(name)
		ms = append(ms, metric{pn, fmt.Sprintf("# TYPE %s counter\n%s %d\n", pn, pn, c.Value())})
	}
	for name, g := range r.gauges {
		v, ok := g.Value()
		if !ok {
			continue
		}
		pn := promName(name)
		ms = append(ms, metric{pn, fmt.Sprintf("# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(v))})
	}
	for name, h := range r.hists {
		pn := promName(name)
		var b strings.Builder
		fmt.Fprintf(&b, "# TYPE %s summary\n", pn)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(&b, "%s{quantile=%q} %s\n", pn, promFloat(q), promFloat(h.Quantile(q)))
		}
		fmt.Fprintf(&b, "%s_sum %s\n%s_count %d\n", pn, promFloat(h.Sum()), pn, h.Count())
		ms = append(ms, metric{pn, b.String()})
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		if _, err := io.WriteString(w, m.body); err != nil {
			return err
		}
	}
	return nil
}
