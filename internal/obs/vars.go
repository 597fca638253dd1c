package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
)

// varsSeries is one series in the JSON dump.
type varsSeries struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  int64             `json:"value,omitempty"`
	Count  uint64            `json:"count,omitempty"`
	Sum    uint64            `json:"sum,omitempty"`
	P50    float64           `json:"p50,omitempty"`
	P99    float64           `json:"p99,omitempty"`
	P999   float64           `json:"p999,omitempty"`
}

// snapshotSeries renders the registry as JSON-friendly series records,
// in the same stable order as the Prometheus exposition.
func (r *Registry) snapshotSeries() []varsSeries {
	if r == nil {
		return nil
	}
	entries := r.sortedEntries()
	out := make([]varsSeries, 0, len(entries))
	for _, e := range entries {
		s := varsSeries{Name: e.name, Kind: e.kind.String()}
		if len(e.labels) > 0 {
			s.Labels = make(map[string]string, len(e.labels))
			for _, l := range e.labels {
				s.Labels[l.Key] = l.Value
			}
		}
		switch e.kind {
		case KindCounter:
			s.Value = int64(e.counter.Value())
		case KindGauge:
			s.Value = e.gauge.Value()
		default:
			s.Count = e.hist.Count()
			s.Sum = e.hist.Sum()
			s.P50 = e.hist.Quantile(0.5)
			s.P99 = e.hist.Quantile(0.99)
			s.P999 = e.hist.Quantile(0.999)
		}
		out = append(out, s)
	}
	return out
}

// WriteVars renders an expvar-compatible JSON object: every published
// expvar (the package auto-publishes cmdline and memstats) plus a
// "metrics" key holding the registry's series. It reimplements
// expvar.Handler's body so mounting it never calls expvar.Publish —
// publishing is process-global and would collide across servers.
func (r *Registry) WriteVars(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "{"); err != nil {
		return err
	}
	first := true
	var loopErr error
	expvar.Do(func(kv expvar.KeyValue) {
		if loopErr != nil {
			return
		}
		if !first {
			if _, err := fmt.Fprintf(w, ","); err != nil {
				loopErr = err
				return
			}
		}
		first = false
		// kv.Value.String() is already JSON per the expvar contract.
		if _, err := fmt.Fprintf(w, "\n%q: %s", kv.Key, kv.Value); err != nil {
			loopErr = err
		}
	})
	if loopErr != nil {
		return loopErr
	}
	series, err := json.Marshal(r.snapshotSeries())
	if err != nil {
		return err
	}
	if !first {
		if _, err := fmt.Fprintf(w, ","); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n%q: %s", "metrics", series); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\n}\n")
	return err
}
