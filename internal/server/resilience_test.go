package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pvcagg/internal/gen"
)

// postRaw posts a QueryRequest with optional extra headers and returns
// the raw response plus decoded success/error bodies (one of qr/er is
// zero depending on status).
func postRaw(t *testing.T, url string, req QueryRequest, hdr map[string]string) (*http.Response, QueryResponse, errorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	var er errorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("decode success body: %v", err)
		}
	} else if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode error body (status %d): %v", resp.StatusCode, err)
	}
	return resp, qr, er
}

// TestRequestIDs: a client-provided X-Request-ID is echoed on the
// response header and in success and error bodies; absent (or oversized)
// ones are replaced by generated unique IDs.
func TestRequestIDs(t *testing.T) {
	srv := httptest.NewServer(New(gen.Figure1(0.5), Config{}).Handler())
	defer srv.Close()

	resp, qr, _ := postRaw(t, srv.URL, QueryRequest{Query: qCount}, map[string]string{"X-Request-ID": "client-abc"})
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc" {
		t.Errorf("echoed header = %q, want client-abc", got)
	}
	if qr.RequestID != "client-abc" {
		t.Errorf("success body request_id = %q, want client-abc", qr.RequestID)
	}

	// Error bodies carry the ID too, so failures are attributable.
	resp, _, er := postRaw(t, srv.URL, QueryRequest{Query: ""}, map[string]string{"X-Request-ID": "client-err"})
	if resp.StatusCode != http.StatusBadRequest || er.RequestID != "client-err" {
		t.Errorf("error status=%d request_id=%q, want 400 with client-err", resp.StatusCode, er.RequestID)
	}

	// No header: the server mints distinct IDs.
	r1, q1, _ := postRaw(t, srv.URL, QueryRequest{Query: qCount}, nil)
	r2, q2, _ := postRaw(t, srv.URL, QueryRequest{Query: qCount}, nil)
	for _, rid := range []string{q1.RequestID, q2.RequestID} {
		if !strings.HasPrefix(rid, "pvcd-") {
			t.Errorf("generated request_id = %q, want pvcd- prefix", rid)
		}
	}
	if q1.RequestID == q2.RequestID {
		t.Errorf("generated IDs collide: %q", q1.RequestID)
	}
	if r1.Header.Get("X-Request-ID") != q1.RequestID || r2.Header.Get("X-Request-ID") != q2.RequestID {
		t.Error("generated ID differs between header and body")
	}

	// An oversized ID is replaced, not echoed (header smuggling guard).
	resp, qr, _ = postRaw(t, srv.URL, QueryRequest{Query: qCount}, map[string]string{"X-Request-ID": strings.Repeat("x", 200)})
	if !strings.HasPrefix(qr.RequestID, "pvcd-") {
		t.Errorf("oversized client ID accepted: %q", qr.RequestID)
	}
	_ = resp
}

// TestPanicRecovery: a panic inside request handling becomes a
// structured 500 with code "panic" and a request ID, counts in /stats,
// and leaves the server fully able to serve the next request.
func TestPanicRecovery(t *testing.T) {
	s := New(gen.Figure1(0.5), Config{})
	boom := true
	s.execGate = func() {
		if boom {
			boom = false
			panic("injected handler panic")
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, _, er := postRaw(t, srv.URL, QueryRequest{Query: qCount}, map[string]string{"X-Request-ID": "panic-req"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if er.Code != "panic" || er.RequestID != "panic-req" {
		t.Errorf("error body = %+v, want code panic with panic-req", er)
	}
	if !strings.Contains(er.Error, "injected handler panic") {
		t.Errorf("error message %q does not name the panic", er.Error)
	}

	// The process survived; the next request succeeds.
	if resp2, qr, _ := postRaw(t, srv.URL, QueryRequest{Query: qCount}, nil); resp2.StatusCode != http.StatusOK || len(qr.Rows) == 0 {
		t.Fatalf("request after contained panic: status %d, %d rows", resp2.StatusCode, len(qr.Rows))
	}

	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	if st.Panics != 1 {
		t.Errorf("stats panics = %d, want 1", st.Panics)
	}
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestReadiness: /healthz is liveness (always 200 while the process
// serves); /readyz is readiness — 503 during drain and while the storage
// backend reports sticky failures, with queries still served throughout.
func TestReadiness(t *testing.T) {
	backendErr := error(nil)
	s := New(gen.Figure1(0.5), Config{Health: func() error { return backendErr }})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, errorResponse) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er
	}

	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}

	// Sticky backend failure: not ready, still alive, still serving.
	backendErr = errors.New("backend unhealthy: consecutive read failures")
	if code, er := get("/readyz"); code != http.StatusServiceUnavailable || er.Code != "backend_unhealthy" {
		t.Errorf("/readyz with sick backend = %d code %q, want 503 backend_unhealthy", code, er.Code)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz with sick backend = %d, want 200 (liveness)", code)
	}
	backendErr = nil
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after recovery = %d, want 200", code)
	}

	// Drain: readiness off, liveness and query service on.
	s.BeginDrain()
	if code, er := get("/readyz"); code != http.StatusServiceUnavailable || er.Code != "draining" {
		t.Errorf("/readyz draining = %d code %q, want 503 draining", code, er.Code)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz draining = %d, want 200", code)
	}
	if resp, qr, _ := postRaw(t, srv.URL, QueryRequest{Query: qCount}, nil); resp.StatusCode != http.StatusOK || len(qr.Rows) == 0 {
		t.Errorf("query during drain: status %d, %d rows — drain must not kill open connections", resp.StatusCode, len(qr.Rows))
	}
	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	if !st.Draining {
		t.Error("stats draining = false during drain")
	}
}

// TestBodyCap: request bodies beyond MaxBodyBytes are cut off with 413,
// not read to exhaustion.
func TestBodyCap(t *testing.T) {
	srv := httptest.NewServer(New(gen.Figure1(0.5), Config{MaxBodyBytes: 256}).Handler())
	defer srv.Close()

	big, err := json.Marshal(QueryRequest{Query: qCount + strings.Repeat(" ", 1024)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", resp.StatusCode)
	}

	// A body under the cap still works.
	if resp, qr, _ := postRaw(t, srv.URL, QueryRequest{Query: qCount}, nil); resp.StatusCode != http.StatusOK || len(qr.Rows) == 0 {
		t.Errorf("normal body after cap test: status %d", resp.StatusCode)
	}
}
