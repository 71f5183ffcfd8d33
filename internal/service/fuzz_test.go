package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// FuzzSubmitDecode fuzzes the job-submission wire decoder end to end
// through the handler: whatever bytes arrive, the server must answer
// 200 or a typed 4xx envelope — never panic, never 5xx, never let a
// non-finite or out-of-order timestamp reach the simulation. Without
// -fuzz this runs the seed corpus as a regression test.
func FuzzSubmitDecode(f *testing.F) {
	srv := New()
	defer srv.Close()
	srv.tenants["fuzz"] = privateTenant(f, TenantSpec{Name: "fuzz", Scheme: "ScanEffi", Seed: 1, FleetSeed: 1, Procs: 4})
	h := srv.Handler()

	for _, seed := range []string{
		`{"jobs": [{"id": 1, "at": 10, "runtime": 60, "procs": 1, "boundness": 0.5}]}`,
		`{"jobs": [{"id": 2, "at": 10, "runtime": 60, "procs": 1, "boundness": 0.5, "deadline": 400}]}`,
		`{"jobs": []}`,
		`{"jobs": [{"at": NaN, "runtime": 60, "procs": 1, "boundness": 0.5}]}`,
		`{"jobs": [{"at": -Infinity}]}`,
		`{"jobs": [{"at": 1e999, "runtime": 60, "procs": 1, "boundness": 0.5}]}`,
		`{"jobs": [{"at": -5, "runtime": 60, "procs": 1, "boundness": 0.5}]}`,
		`{"jobs": [{"at": 0, "runtime": -60, "procs": 1, "boundness": 0.5}]}`,
		`{"jobs": [{"at": 0, "runtime": 60, "procs": 0, "boundness": 2}]}`,
		`{"jobs": [{"at": 0, "runtime": 60, "procs": 1, "boundness": 0.5, "deadline": 1}]}`,
		`{"jobs": [{"at": 9e307, "runtime": 9e307, "procs": 1, "boundness": 0.5}]}`,
		`{"jobs`,
		`{}`,
		`[]`,
		`null`,
		`"jobs"`,
		`{"jobs": [{"unknown_field": true}]}`,
		`{"jobs": [{"id": "not-a-number"}]}`,
		"\x00\x01\x02",
		`{"jobs": [{"at": 5, "runtime": 60, "procs": 1, "boundness": 0.5}]} {"jobs": []}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/tenants/fuzz/jobs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case rec.Code == 200:
			var resp SubmitResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Admitted == 0 {
				t.Fatalf("200 with bad body %q (err %v)", rec.Body.String(), err)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var env struct {
				Error *APIError `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code == "" {
				t.Fatalf("%d without a typed envelope: %q", rec.Code, rec.Body.String())
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
	})
}
