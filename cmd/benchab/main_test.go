package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{10, 20}, 0.5); got != 15 {
		t.Errorf("median of two = %v, want 15", got)
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("quantile of one = %v, want 7", got)
	}
}

// TestReportWins: a pair counts as a win only when the working tree is
// strictly better in the metric's direction; ties count for neither.
func TestReportWins(t *testing.T) {
	mk := func(rps, p50 float64) result {
		var r result
		r.Metrics = map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{
			"throughput_rps": {rps, "1/s"},
			"latency_p50_ms": {p50, "ms"},
		}
		return r
	}
	base := []result{mk(10, 5), mk(10, 5), mk(10, 5)}
	head := []result{mk(12, 4), mk(10, 5), mk(9, 6)}
	var out bytes.Buffer
	report(&out, base, head, map[string]bool{"throughput_rps": true})
	for _, want := range []string{"throughput_rps", "latency_p50_ms"} {
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, want) {
				line = l
			}
		}
		if !strings.HasSuffix(strings.TrimSpace(line), "1/3") {
			t.Errorf("%s: want 1/3 wins, got %q", want, line)
		}
	}
}
