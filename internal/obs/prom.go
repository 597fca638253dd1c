package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Exported quantiles for histogram series (the HDR-style trio).
var exportQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4), sorted by name so output is
// stable for golden tests and diffs. Counters and gauges render as one
// sample each; histograms render as summaries: one sample per exported
// quantile plus <name>_sum and <name>_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	entries := r.sortedEntries()
	var lastFamily string
	for _, e := range entries {
		if e.name != lastFamily {
			lastFamily = e.name
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, escapeHelp(e.help)); err != nil {
					return err
				}
			}
			typ := e.kind.String()
			if e.kind == KindHistogram {
				typ = "summary"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, typ); err != nil {
				return err
			}
		}
		if err := writeSamples(w, e); err != nil {
			return err
		}
	}
	return nil
}

func writeSamples(w io.Writer, e *entry) error {
	switch e.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", e.name, renderLabels(e.labels), e.counter.Value())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", e.name, renderLabels(e.labels), e.gauge.Value())
		return err
	default:
		for _, eq := range exportQuantiles {
			labels := append(append([]Label(nil), e.labels...), Label{Key: "quantile", Value: eq.label})
			v := strconv.FormatFloat(e.hist.Quantile(eq.q), 'g', -1, 64)
			if _, err := fmt.Fprintf(w, "%s%s %s\n", e.name, renderLabels(labels), v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", e.name, renderLabels(e.labels), e.hist.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", e.name, renderLabels(e.labels), e.hist.Count())
		return err
	}
}

// renderLabels renders {k="v",...} or "" for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeHelp escapes backslash and newline per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslash, quote, and newline in label values.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
