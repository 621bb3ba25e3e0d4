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

// TestWrongMethodIs405 sends a method no route serves to every
// registered path: each answers 405 method_not_allowed with the
// request id and an Allow header naming exactly the registered
// methods, and changes nothing. A path under /v1 that no route has
// still answers 404.
func TestWrongMethodIs405(t *testing.T) {
	_, ts := newTestServer(t, 40, 30)
	createSession(t, ts, "co", false)
	for _, c := range []struct{ method, path, allow string }{
		{"PUT", "/graphs", "POST, GET"},
		{"GET", "/graphs/co", "DELETE"},
		{"POST", "/graphs/co/stats", "GET"},
		{"DELETE", "/graphs/co/neighbors?v=1", "GET"},
		{"POST", "/graphs/co/analyze/degree", "GET"},
		{"GET", "/db/AuthorPub/insert", "POST"},
		{"PUT", "/db/AuthorPub/delete", "POST"},
		{"DELETE", "/healthz", "GET"},
		{"POST", "/metrics", "GET"},
	} {
		t.Run(c.method+" "+c.path, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+api+c.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			errCode, msg := errEnvelope(t, body)
			reqID, _ := body["error"].(map[string]any)["request_id"].(string)
			if resp.StatusCode != http.StatusMethodNotAllowed || errCode != "method_not_allowed" || msg == "" {
				t.Errorf("status %d, envelope %v; want 405 method_not_allowed with a message", resp.StatusCode, body)
			}
			if reqID == "" || reqID != resp.Header.Get("X-Request-Id") {
				t.Errorf("envelope request id %q, header %q", reqID, resp.Header.Get("X-Request-Id"))
			}
			if got := resp.Header.Get("Allow"); got != c.allow {
				t.Errorf("Allow = %q, want %q", got, c.allow)
			}
		})
	}
	// Nothing the wrong-method requests carried took effect.
	if code, list := doJSON(t, "GET", ts.URL+api+"/graphs", nil); code != http.StatusOK || len(list["sessions"].([]any)) != 1 {
		t.Fatalf("sessions after wrong-method requests: status %d, %v", code, list)
	}
	for _, path := range []string{"/graphs/co/nope", "/db/AuthorPub", "/nope"} {
		code, body := doJSON(t, "DELETE", ts.URL+api+path, nil)
		if errCode, _ := errEnvelope(t, body); code != http.StatusNotFound || errCode != "route_not_found" {
			t.Errorf("DELETE /v1%s: status %d code %q, want 404 route_not_found", path, code, errCode)
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
