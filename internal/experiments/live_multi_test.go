package experiments

import (
	"testing"
	"time"
)

// TestPercentile pins the nearest-rank percentile rule E15 reports.
func TestPercentile(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(lat, 50); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := percentile(lat, 99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	if got := percentile(lat[:1], 99); got != 1 {
		t.Fatalf("p99 of singleton = %v, want 1", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("p50 of empty = %v, want 0", got)
	}
}
