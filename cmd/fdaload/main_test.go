package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestCheckExpositions pins the exposition half of -check: a valid,
// non-empty GET /metrics passes, while a malformed scrape, an empty one
// and a non-200 answer each fail the check.
func TestCheckExpositions(t *testing.T) {
	serve := func(code int, body string) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/metrics" {
				http.NotFound(w, r)
				return
			}
			w.WriteHeader(code)
			fmt.Fprint(w, body)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	good := serve(http.StatusOK, "# HELP up h\n# TYPE up gauge\nup 1\n")
	if err := checkExpositions(splitBases(good + "/")); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	for name, base := range map[string]string{
		"garbage": serve(http.StatusOK, "not a metric line\n"),
		"empty":   serve(http.StatusOK, "# HELP up h\n# TYPE up gauge\n"),
		"status":  serve(http.StatusInternalServerError, "up 1\n"),
	} {
		err := checkExpositions(splitBases(good + "," + base))
		if err == nil || !strings.Contains(err.Error(), base) {
			t.Fatalf("%s exposition: err = %v, want a failure naming %s", name, err, base)
		}
	}
}
