package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"graphgen/internal/datagen"
)

// TestBareRoutesRetired pins the versioning contract after the legacy
// aliases were removed: every endpoint answers under /v1 only, its bare
// spelling gets the 404 error envelope like any other unknown path, and
// the route stats carry no "(deprecated)" label.
func TestBareRoutesRetired(t *testing.T) {
	_, ts := newTestServer(t, 40, 30)
	createSession(t, ts, "co", false)
	for _, c := range []struct{ method, path string }{
		{"POST", "/graphs"},
		{"GET", "/graphs"},
		{"DELETE", "/graphs/co"},
		{"GET", "/graphs/co/stats"},
		{"GET", "/graphs/co/neighbors?v=1"},
		{"GET", "/graphs/co/analyze/degree"},
		{"POST", "/db/AuthorPub/insert"},
		{"POST", "/db/AuthorPub/delete"},
		{"GET", "/healthz"},
		{"GET", "/metrics"},
	} {
		code, body := doJSON(t, c.method, ts.URL+c.path, map[string]any{"name": "x", "query": datagen.QueryCoauthors, "row": []any{1, 1}})
		errCode, msg := errEnvelope(t, body)
		reqID, _ := body["error"].(map[string]any)["request_id"].(string)
		if code != http.StatusNotFound || errCode != "route_not_found" || msg == "" || reqID == "" {
			t.Errorf("%s %s: status %d, envelope %v; want 404 route_not_found with a message and request id", c.method, c.path, code, body)
		}
	}
	// Nothing the bare requests carried took effect.
	if code, list := doJSON(t, "GET", ts.URL+api+"/graphs", nil); code != http.StatusOK || len(list["sessions"].([]any)) != 1 {
		t.Fatalf("sessions after bare requests: status %d, %v", code, list)
	}
	_, m := doJSON(t, "GET", ts.URL+api+"/metrics", nil)
	reqs := m["requests"].(map[string]any)
	if _, ok := reqs["GET /v1/graphs"]; !ok {
		t.Fatalf("no /v1 route label in metrics: %v", reqs)
	}
	for label := range reqs {
		if strings.Contains(label, "deprecated") || !(strings.Contains(label, " /v1/") || label == "unmatched") {
			t.Errorf("unexpected route label %q in metrics", label)
		}
	}
}

// TestErrorEnvelopeCodes walks the error surface and asserts each
// failure mode returns its documented stable code.
func TestErrorEnvelopeCodes(t *testing.T) {
	_, ts := newTestServer(t, 40, 30)
	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs", map[string]any{
		"name": "co", "query": datagen.QueryCoauthors,
	})
	if code != http.StatusCreated {
		t.Fatalf("create: status %d, body %v", code, body)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       map[string]any
		wantStatus int
		wantCode   string
	}{
		{"bad session name", "POST", "/v1/graphs", map[string]any{"name": "no/slash", "query": datagen.QueryCoauthors}, http.StatusBadRequest, "bad_param"},
		{"no query or program", "POST", "/v1/graphs", map[string]any{"name": "empty"}, http.StatusBadRequest, "bad_param"},
		{"duplicate session", "POST", "/v1/graphs", map[string]any{"name": "co", "query": datagen.QueryCoauthors}, http.StatusConflict, "session_exists"},
		{"bad query", "POST", "/v1/graphs", map[string]any{"name": "bad", "query": "this is not datalog"}, http.StatusBadRequest, "extraction_failed"},
		{"unknown session", "DELETE", "/v1/graphs/nope", nil, http.StatusNotFound, "session_not_found"},
		{"missing v param", "GET", "/v1/graphs/co/neighbors", nil, http.StatusBadRequest, "bad_param"},
		{"non-integer v", "GET", "/v1/graphs/co/neighbors?v=abc", nil, http.StatusBadRequest, "bad_param"},
		{"unknown analysis", "GET", "/v1/graphs/co/analyze/nope", nil, http.StatusBadRequest, "bad_param"},
		{"unknown table", "POST", "/v1/db/Nope/insert", map[string]any{"row": []any{1}}, http.StatusNotFound, "table_not_found"},
		{"empty mutation", "POST", "/v1/db/Author/insert", map[string]any{}, http.StatusBadRequest, "bad_param"},
		{"arity mismatch", "POST", "/v1/db/Author/insert", map[string]any{"row": []any{1}}, http.StatusBadRequest, "bad_param"},
	}
	for _, tc := range cases {
		code, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
		gotCode, msg := errEnvelope(t, body)
		if code != tc.wantStatus || gotCode != tc.wantCode {
			t.Errorf("%s: status %d code %q (want %d %q), message %q", tc.name, code, gotCode, tc.wantStatus, tc.wantCode, msg)
		}
		if msg == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}

	// Malformed JSON cannot go through doJSON's marshaler.
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil {
		t.Fatal(derr)
	}
	gotCode, _ := errEnvelope(t, out)
	if resp.StatusCode != http.StatusBadRequest || gotCode != "bad_json" {
		t.Fatalf("malformed JSON: status %d code %q", resp.StatusCode, gotCode)
	}
}
