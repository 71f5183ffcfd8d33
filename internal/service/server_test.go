package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"iscope/internal/scheduler"
	"iscope/internal/scheduler/testgrid"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// do runs one request through the handler and returns the recorder.
func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// wantStatus fails unless the recorder holds the expected status; on
// error statuses it also checks the typed envelope decodes.
func wantStatus(t *testing.T, rec *httptest.ResponseRecorder, want int) {
	t.Helper()
	if rec.Code != want {
		t.Fatalf("status %d, want %d; body: %s", rec.Code, want, rec.Body.String())
	}
	if want >= 400 {
		var env struct {
			Error *APIError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code == "" {
			t.Fatalf("error response is not a typed envelope: %s", rec.Body.String())
		}
	}
}

// submissions converts a synthesized trace to wire submissions.
func submissions(jobs []workload.Job) []JobSubmission {
	out := make([]JobSubmission, len(jobs))
	for i, j := range jobs {
		out[i] = JobSubmission{
			ID:        j.ID,
			At:        float64(j.Submit),
			Runtime:   float64(j.Runtime),
			Procs:     j.Procs,
			Boundness: j.Boundness,
			Deadline:  float64(j.Deadline),
		}
	}
	return out
}

func testSpec(name string) TenantSpec {
	return TenantSpec{
		Name: name, Scheme: "ScanEffi", Seed: 1, FleetSeed: 7, Procs: 8,
		Wind: &WindSpec{Seed: 2, Days: 4, MeanFrac: 0.5},
	}
}

// TestTenantLifecycle walks the whole control/data plane: create,
// duplicate and malformed creates, streaming, ordering, sealing,
// result, snapshot, delete — with the terminal result compared
// bit-for-bit (JSON) against an in-process stepper fed the same
// stream.
func TestTenantLifecycle(t *testing.T) {
	srv := New()
	defer srv.Close()
	h := srv.Handler()
	jobs := testgrid.Jobs(t, 50, 30, 0.3).Jobs
	subs := submissions(jobs)

	wantStatus(t, do(t, h, "POST", "/v1/tenants", testSpec("alpha")), http.StatusCreated)
	wantStatus(t, do(t, h, "POST", "/v1/tenants", testSpec("alpha")), http.StatusConflict)
	bad := testSpec("beta")
	bad.Procs = 0
	wantStatus(t, do(t, h, "POST", "/v1/tenants", bad), http.StatusUnprocessableEntity)
	wantStatus(t, do(t, h, "GET", "/v1/tenants/ghost", nil), http.StatusNotFound)

	// Stream the first half, advance into it, stream the rest.
	half := len(subs) / 2
	rec := do(t, h, "POST", "/v1/tenants/alpha/jobs", SubmitRequest{Jobs: subs[:half]})
	wantStatus(t, rec, http.StatusOK)
	var sr SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || sr.Admitted != half {
		t.Fatalf("submit response %s (err %v)", rec.Body.String(), err)
	}
	mid := subs[half].At
	rec = do(t, h, "POST", "/v1/tenants/alpha/advance", AdvanceRequest{To: mid - 1})
	wantStatus(t, rec, http.StatusOK)
	var ar AdvanceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil || ar.Fired == 0 {
		t.Fatalf("advance response %s (err %v)", rec.Body.String(), err)
	}
	// Out-of-order: a submission behind the advanced clock is a 422.
	if ar.Now > 0 {
		late := JobSubmission{ID: 900, At: ar.Now - 1, Runtime: 60, Procs: 1, Boundness: 0.5}
		wantStatus(t, do(t, h, "POST", "/v1/tenants/alpha/jobs", SubmitRequest{Jobs: []JobSubmission{late}}),
			http.StatusUnprocessableEntity)
	}
	wantStatus(t, do(t, h, "POST", "/v1/tenants/alpha/jobs", SubmitRequest{Jobs: subs[half:]}), http.StatusOK)

	// Result before seal is a conflict; after seal the stream refuses
	// jobs and the result drains.
	wantStatus(t, do(t, h, "GET", "/v1/tenants/alpha/result", nil), http.StatusConflict)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/alpha/seal", nil), http.StatusOK)
	extra := JobSubmission{ID: 901, At: mid + 10, Runtime: 60, Procs: 1, Boundness: 0.5}
	wantStatus(t, do(t, h, "POST", "/v1/tenants/alpha/jobs", SubmitRequest{Jobs: []JobSubmission{extra}}),
		http.StatusConflict)
	rec = do(t, h, "GET", "/v1/tenants/alpha/result", nil)
	wantStatus(t, rec, http.StatusOK)

	// The HTTP-driven run must match an in-process stepper fed the
	// identical stream in one sitting.
	ref := privateTenant(t, testSpec("ref"))
	defer ref.close()
	for i := range subs {
		if _, aerr := ref.submit(&subs[i]); aerr != nil {
			t.Fatalf("ref submit %d: %v", i, aerr)
		}
	}
	ref.seal()
	want, aerr := ref.result()
	if aerr != nil {
		t.Fatal(aerr)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got, wantBack scheduler.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantJSON, &wantBack); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	refJSON, _ := json.Marshal(wantBack)
	if !bytes.Equal(gotJSON, refJSON) {
		t.Fatalf("HTTP result diverged from in-process run:\nhttp %s\nref  %s", gotJSON, refJSON)
	}

	rec = do(t, h, "GET", "/v1/tenants/alpha", nil)
	wantStatus(t, rec, http.StatusOK)
	var st StatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || !st.Finished || st.JobsLeft != 0 {
		t.Fatalf("final status %s (err %v)", rec.Body.String(), err)
	}

	rec = do(t, h, "GET", "/v1/tenants/alpha/snapshot", nil)
	wantStatus(t, rec, http.StatusOK)
	if rec.Body.Len() == 0 || rec.Header().Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("snapshot: %d bytes, content-type %q", rec.Body.Len(), rec.Header().Get("Content-Type"))
	}

	wantStatus(t, do(t, h, "DELETE", "/v1/tenants/alpha", nil), http.StatusNoContent)
	wantStatus(t, do(t, h, "GET", "/v1/tenants/alpha", nil), http.StatusNotFound)
}

// TestSubmitDecodeRejections: syntactic garbage is a 400 with a typed
// envelope, never a panic or a silent admit.
func TestSubmitDecodeRejections(t *testing.T) {
	srv := New()
	defer srv.Close()
	h := srv.Handler()
	spec := TenantSpec{Name: "decode", Scheme: "ScanEffi", Seed: 1, FleetSeed: 1, Procs: 4}
	wantStatus(t, do(t, h, "POST", "/v1/tenants", spec), http.StatusCreated)

	for _, body := range []string{
		`{`,
		`{"jobs": [{"at": NaN}]}`,
		`{"jobs": [{"at": Infinity}]}`,
		`{"jobs": [{"at": 0, "runtime": 60, "procs": 1, "boundness": 0.5, "bogus": 1}]}`,
		`{"jobs": []}`,
		`{"jobs": [{"at": 0, "runtime": 60, "procs": 1, "boundness": 0.5}]} trailing`,
		`[]`,
	} {
		req := httptest.NewRequest("POST", "/v1/tenants/decode/jobs", bytes.NewBufferString(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		wantStatus(t, rec, http.StatusBadRequest)
	}
	// 1e999 overflows float64: a decode error, not an Inf smuggled in.
	req := httptest.NewRequest("POST", "/v1/tenants/decode/jobs",
		bytes.NewBufferString(`{"jobs": [{"at": 1e999, "runtime": 60, "procs": 1, "boundness": 0.5}]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	wantStatus(t, rec, http.StatusBadRequest)

	if st := tenantStatus(t, h, "decode"); st.Jobs != 0 {
		t.Fatalf("rejected submissions injected %d jobs", st.Jobs)
	}
}

// TestCreateRejectsWorkerCount: the ignored workers field keeps its
// old range, so a count outside [0, maxWorkers] is still a 422
// invalid_spec that leaves no tenant and starts no goroutine.
func TestCreateRejectsWorkerCount(t *testing.T) {
	srv := New()
	defer srv.Close()
	h := srv.Handler()
	before := runtime.NumGoroutine()
	// The huge count goes last: without the bound it would try to
	// allocate an arena per worker, so a regression fails fast on the
	// small one first.
	for _, workers := range []int{maxWorkers + 1, -1, 100000000} {
		spec := testSpec("wide")
		spec.Workers = workers
		rec := do(t, h, "POST", "/v1/tenants", spec)
		wantStatus(t, rec, http.StatusUnprocessableEntity)
		var env struct {
			Error *APIError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "invalid_spec" {
			t.Fatalf("workers=%d: error %s, want invalid_spec", workers, rec.Body.String())
		}
	}
	wantStatus(t, do(t, h, "GET", "/v1/tenants/wide", nil), http.StatusNotFound)
	rec := do(t, h, "GET", "/v1/tenants", nil)
	wantStatus(t, rec, http.StatusOK)
	var list []StatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list) != 0 {
		t.Fatalf("tenant list after rejected creates: %s (err %v)", rec.Body.String(), err)
	}
	// Goroutines of earlier tests may still be winding down, so only a
	// rise counts.
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("rejected creates left %d goroutines, want at most %d", got, before)
	}
	ok := testSpec("ok")
	ok.Workers = maxWorkers
	if err := ok.Validate(); err != nil {
		t.Fatalf("workers=maxWorkers rejected: %v", err)
	}
}

// workersSpec is a wind-powered ScanFair tenant, so its runs take the
// fair order the workers field once split across goroutines.
func workersSpec(workers int) TenantSpec {
	spec := testSpec("wk")
	spec.Scheme = "ScanFair"
	spec.Workers = workers
	return spec
}

// TestWorkersFieldIgnored: a tenant created with "workers": 8 and one
// created without the field serve byte-identical status, snapshot and
// result.
func TestWorkersFieldIgnored(t *testing.T) {
	subs := submissions(testgrid.Jobs(t, 52, 30, 0.3).Jobs)
	half := len(subs) / 2
	drive := func(workers int) (status, snap, result []byte) {
		srv := New()
		defer srv.Close()
		h := srv.Handler()
		wantStatus(t, do(t, h, "POST", "/v1/tenants", workersSpec(workers)), http.StatusCreated)
		wantStatus(t, do(t, h, "POST", "/v1/tenants/wk/jobs", SubmitRequest{Jobs: subs}), http.StatusOK)
		wantStatus(t, do(t, h, "POST", "/v1/tenants/wk/advance", AdvanceRequest{To: subs[half].At}), http.StatusOK)
		rec := do(t, h, "GET", "/v1/tenants/wk", nil)
		wantStatus(t, rec, http.StatusOK)
		status = rec.Body.Bytes()
		rec = do(t, h, "GET", "/v1/tenants/wk/snapshot", nil)
		wantStatus(t, rec, http.StatusOK)
		snap = rec.Body.Bytes()
		wantStatus(t, do(t, h, "POST", "/v1/tenants/wk/seal", nil), http.StatusOK)
		rec = do(t, h, "GET", "/v1/tenants/wk/result", nil)
		wantStatus(t, rec, http.StatusOK)
		return status, snap, rec.Body.Bytes()
	}
	wantSt, wantSnap, wantRes := drive(0)
	gotSt, gotSnap, gotRes := drive(8)
	if !bytes.Equal(gotSt, wantSt) {
		t.Errorf("status with workers 8 differs:\n%s\nwithout the field:\n%s", gotSt, wantSt)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Errorf("snapshot with workers 8 differs from the one without the field (%d vs %d bytes)", len(gotSnap), len(wantSnap))
	}
	if !bytes.Equal(gotRes, wantRes) {
		t.Errorf("result with workers 8 differs:\n%s\nwithout the field:\n%s", gotRes, wantRes)
	}
}

// TestLoadAllIgnoresStoredWorkers: a state dir whose stored spec
// carries "workers": 8 loads through LoadAll and finishes
// byte-identically to an uninterrupted tenant created without the
// field.
func TestLoadAllIgnoresStoredWorkers(t *testing.T) {
	subs := submissions(testgrid.Jobs(t, 53, 30, 0.3).Jobs)
	half := len(subs) / 2
	start := func(h http.Handler, workers int) {
		wantStatus(t, do(t, h, "POST", "/v1/tenants", workersSpec(workers)), http.StatusCreated)
		wantStatus(t, do(t, h, "POST", "/v1/tenants/wk/jobs", SubmitRequest{Jobs: subs[:half]}), http.StatusOK)
		wantStatus(t, do(t, h, "POST", "/v1/tenants/wk/advance", AdvanceRequest{To: subs[half].At - 1}), http.StatusOK)
	}
	finish := func(h http.Handler) []byte {
		wantStatus(t, do(t, h, "POST", "/v1/tenants/wk/jobs", SubmitRequest{Jobs: subs[half:]}), http.StatusOK)
		wantStatus(t, do(t, h, "POST", "/v1/tenants/wk/seal", nil), http.StatusOK)
		rec := do(t, h, "GET", "/v1/tenants/wk/result", nil)
		wantStatus(t, rec, http.StatusOK)
		return rec.Body.Bytes()
	}

	ref := New()
	defer ref.Close()
	start(ref.Handler(), 0)
	want := finish(ref.Handler())

	a := New()
	start(a.Handler(), 8)
	dir := t.TempDir()
	if err := a.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	a.Close()
	meta, err := os.ReadFile(filepath.Join(dir, "wk"+metaSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(meta, []byte(`"workers": 8`)) {
		t.Fatalf("stored spec does not carry the workers field:\n%s", meta)
	}

	b := New()
	defer b.Close()
	if n, err := b.LoadAll(dir); err != nil || n != 1 {
		t.Fatalf("LoadAll: %d tenants, err %v", n, err)
	}
	if got := finish(b.Handler()); !bytes.Equal(got, want) {
		t.Fatalf("tenant restored from a workers-8 spec diverged:\n%s\nuninterrupted without the field:\n%s", got, want)
	}
}

// TestCreateRejectsProcsCount: a tenant's fleet is built before the
// tenant exists, so a proc count outside [1, maxProcs] is a 422
// invalid_spec that builds no fleet and leaves no tenant.
func TestCreateRejectsProcsCount(t *testing.T) {
	srv := New()
	defer srv.Close()
	h := srv.Handler()
	// The huge count goes last: without the bound it would try to
	// allocate its chips, so a regression fails fast on the small ones
	// first.
	for _, procs := range []int{0, -1, maxProcs + 1, 2000000000} {
		spec := testSpec("huge")
		spec.Procs = procs
		rec := do(t, h, "POST", "/v1/tenants", spec)
		wantStatus(t, rec, http.StatusUnprocessableEntity)
		var env struct {
			Error *APIError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "invalid_spec" {
			t.Fatalf("procs=%d: error %s, want invalid_spec", procs, rec.Body.String())
		}
		wantFleetsHeld(t, srv, 0)
	}
	wantStatus(t, do(t, h, "GET", "/v1/tenants/huge", nil), http.StatusNotFound)
	ok := testSpec("ok")
	ok.Procs = maxProcs
	if err := ok.Validate(); err != nil {
		t.Fatalf("procs=maxProcs rejected: %v", err)
	}

	// A stored spec above the cap is refused on restart, before any
	// fleet is built.
	dir := t.TempDir()
	wantStatus(t, do(t, h, "POST", "/v1/tenants", testSpec("stored")), http.StatusCreated)
	if err := srv.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "stored"+metaSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	huge := bytes.Replace(raw, []byte(`"procs": 8,`), []byte(`"procs": 2000000000,`), 1)
	if bytes.Equal(huge, raw) {
		t.Fatal("metadata carries no procs field to raise")
	}
	if err := os.WriteFile(path, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	re := New()
	defer re.Close()
	var lerr *LoadError
	if _, err := re.LoadAll(dir); !errors.As(err, &lerr) {
		t.Fatalf("LoadAll of a spec above maxProcs: got %v, want *LoadError", err)
	}
	wantFleetsHeld(t, re, 0)
}

func tenantStatus(t *testing.T, h http.Handler, name string) StatusResponse {
	t.Helper()
	rec := do(t, h, "GET", "/v1/tenants/"+name, nil)
	wantStatus(t, rec, http.StatusOK)
	var st StatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAdmissionTokenBucket: the bucket runs in virtual time — burst,
// a 429 when empty, refill exactly when the submitted timestamps say
// so, and the policy state survives SaveAll/LoadAll.
func TestAdmissionTokenBucket(t *testing.T) {
	srv := New()
	defer srv.Close()
	h := srv.Handler()
	spec := TenantSpec{
		Name: "bucket", Scheme: "BinRan", Seed: 1, FleetSeed: 1, Procs: 4,
		Admission: &AdmissionSpec{Policy: "token-bucket", RatePerHour: 2, Burst: 2},
	}
	wantStatus(t, do(t, h, "POST", "/v1/tenants", spec), http.StatusCreated)

	job := func(id int, at float64) SubmitRequest {
		return SubmitRequest{Jobs: []JobSubmission{{ID: id, At: at, Runtime: 60, Procs: 1, Boundness: 0.5}}}
	}
	wantStatus(t, do(t, h, "POST", "/v1/tenants/bucket/jobs", job(1, 0)), http.StatusOK)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/bucket/jobs", job(2, 0)), http.StatusOK)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/bucket/jobs", job(3, 0)), http.StatusTooManyRequests)
	// 2/hour -> one token back after 30 virtual minutes.
	wantStatus(t, do(t, h, "POST", "/v1/tenants/bucket/jobs", job(4, 1800)), http.StatusOK)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/bucket/jobs", job(5, 1800)), http.StatusTooManyRequests)
	// A malformed job must not burn the token that accrues by t=3600.
	badJob := SubmitRequest{Jobs: []JobSubmission{{ID: 6, At: 3600, Runtime: -1, Procs: 1, Boundness: 0.5}}}
	wantStatus(t, do(t, h, "POST", "/v1/tenants/bucket/jobs", badJob), http.StatusUnprocessableEntity)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/bucket/jobs", job(7, 3600)), http.StatusOK)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/bucket/jobs", job(8, 3600)), http.StatusTooManyRequests)

	// The drained bucket persists across a save/load cycle.
	dir := t.TempDir()
	if err := srv.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	srv2 := New()
	defer srv2.Close()
	if n, err := srv2.LoadAll(dir); err != nil || n != 1 {
		t.Fatalf("LoadAll: %d tenants, err %v", n, err)
	}
	h2 := srv2.Handler()
	wantStatus(t, do(t, h2, "POST", "/v1/tenants/bucket/jobs", job(9, 3600)), http.StatusTooManyRequests)
	if st := tenantStatus(t, h2, "bucket"); st.Jobs != 4 {
		t.Fatalf("restored tenant knows %d jobs, want 4", st.Jobs)
	}
}

// TestSaveLoadResume: a daemon-style save/restart/resume must land on
// the same final result as an uninterrupted server fed the identical
// stream.
func TestSaveLoadResume(t *testing.T) {
	jobs := testgrid.Jobs(t, 51, 24, 0.3).Jobs
	subs := submissions(jobs)
	half := len(subs) / 2
	spec := testSpec("resume")
	spec.Invariants = true

	finish := func(h http.Handler) []byte {
		wantStatus(t, do(t, h, "POST", "/v1/tenants/resume/jobs", SubmitRequest{Jobs: subs[half:]}), http.StatusOK)
		wantStatus(t, do(t, h, "POST", "/v1/tenants/resume/seal", nil), http.StatusOK)
		rec := do(t, h, "GET", "/v1/tenants/resume/result", nil)
		wantStatus(t, rec, http.StatusOK)
		return rec.Body.Bytes()
	}

	// Uninterrupted reference.
	ref := New()
	defer ref.Close()
	refH := ref.Handler()
	wantStatus(t, do(t, refH, "POST", "/v1/tenants", spec), http.StatusCreated)
	wantStatus(t, do(t, refH, "POST", "/v1/tenants/resume/jobs", SubmitRequest{Jobs: subs[:half]}), http.StatusOK)
	wantStatus(t, do(t, refH, "POST", "/v1/tenants/resume/advance", AdvanceRequest{To: subs[half].At - 1}), http.StatusOK)
	want := finish(refH)

	// Interrupted: same prefix, save, load into a fresh server, same
	// suffix.
	a := New()
	aH := a.Handler()
	wantStatus(t, do(t, aH, "POST", "/v1/tenants", spec), http.StatusCreated)
	wantStatus(t, do(t, aH, "POST", "/v1/tenants/resume/jobs", SubmitRequest{Jobs: subs[:half]}), http.StatusOK)
	wantStatus(t, do(t, aH, "POST", "/v1/tenants/resume/advance", AdvanceRequest{To: subs[half].At - 1}), http.StatusOK)
	dir := t.TempDir()
	if err := a.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b := New()
	defer b.Close()
	if n, err := b.LoadAll(dir); err != nil || n != 1 {
		t.Fatalf("LoadAll: %d tenants, err %v", n, err)
	}
	got := finish(b.Handler())

	var wantRes, gotRes scheduler.Result
	if err := json.Unmarshal(want, &wantRes); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &gotRes); err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(wantRes)
	gj, _ := json.Marshal(gotRes)
	if !bytes.Equal(wj, gj) {
		t.Fatalf("resumed run diverged from uninterrupted run:\nwant %s\ngot  %s", wj, gj)
	}
	if wantRes.JobsCompleted != len(subs) {
		t.Fatalf("reference completed %d jobs, streamed %d", wantRes.JobsCompleted, len(subs))
	}
}

// TestBulkAdvance: POST /v1/advance moves every tenant's clock.
func TestBulkAdvance(t *testing.T) {
	srv := New()
	defer srv.Close()
	h := srv.Handler()
	for i := 0; i < 3; i++ {
		spec := TenantSpec{Name: fmt.Sprintf("bulk-%d", i), Scheme: "ScanRan", Seed: uint64(i), FleetSeed: 1, Procs: 4}
		wantStatus(t, do(t, h, "POST", "/v1/tenants", spec), http.StatusCreated)
		sub := SubmitRequest{Jobs: []JobSubmission{{ID: i, At: 10, Runtime: 300, Procs: 1, Boundness: 0.5}}}
		wantStatus(t, do(t, h, "POST", fmt.Sprintf("/v1/tenants/bulk-%d/jobs", i), sub), http.StatusOK)
	}
	rec := do(t, h, "POST", "/v1/advance", AdvanceRequest{To: float64(units.Hours(1))})
	wantStatus(t, rec, http.StatusOK)
	var cells []struct {
		Name  string  `json:"name"`
		Fired int     `json:"fired"`
		Now   float64 `json:"now"`
		Error string  `json:"error,omitempty"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cells); err != nil || len(cells) != 3 {
		t.Fatalf("bulk advance response %s (err %v)", rec.Body.String(), err)
	}
	for _, c := range cells {
		if c.Error != "" || c.Fired == 0 || c.Now <= 0 {
			t.Fatalf("bulk advance cell %+v", c)
		}
	}
}
