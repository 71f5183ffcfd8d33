package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"iscope/internal/scheduler"
	"iscope/internal/scheduler/testgrid"
	"iscope/internal/units"
)

// privateTenant builds a tenant on a fleet of its own, outside any
// server's fleet cache: the reference shared-fleet tenants must match.
func privateTenant(tb testing.TB, spec TenantSpec) *tenant {
	tb.Helper()
	fleet, err := scheduler.BuildFleet(scheduler.DefaultFleetSpec(spec.FleetSeed, spec.Procs))
	if err != nil {
		tb.Fatal(err)
	}
	tn, err := newTenant(spec, fleet, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return tn
}

// serverFleet returns the fleet a server's tenant runs on.
func serverFleet(t *testing.T, srv *Server, name string) *scheduler.Fleet {
	t.Helper()
	tn, aerr := srv.lookup(name)
	if aerr != nil {
		t.Fatalf("lookup %q: %v", name, aerr)
	}
	return tn.fleet
}

// wantFleetsHeld fails unless the server's cache holds exactly n fleets.
func wantFleetsHeld(t *testing.T, srv *Server, n int) {
	t.Helper()
	srv.fleets.mu.Lock()
	got := len(srv.fleets.m)
	srv.fleets.mu.Unlock()
	if got != n {
		t.Fatalf("fleet cache holds %d fleets, want %d", got, n)
	}
}

// schemeSpecs returns one spec per scheme, all on testSpec's fleet key.
func schemeSpecs() []TenantSpec {
	var specs []TenantSpec
	for i, sch := range scheduler.Schemes() {
		spec := testSpec(fmt.Sprintf("s%d", i))
		spec.Scheme = sch.Name
		spec.Seed = uint64(10 + i)
		specs = append(specs, spec)
	}
	return specs
}

// TestSharedFleetMatchesPrivate: tenants of every scheme created on
// one (FleetSeed, Procs) share a single fleet, and each ends with the
// mid-stream snapshot bytes and final Result of a tenant built on a
// fleet of its own and fed the same stream.
func TestSharedFleetMatchesPrivate(t *testing.T) {
	srv := New()
	defer srv.Close()
	h := srv.Handler()
	specs := schemeSpecs()
	for _, spec := range specs {
		wantStatus(t, do(t, h, "POST", "/v1/tenants", spec), http.StatusCreated)
	}
	wantFleetsHeld(t, srv, 1)
	shared := serverFleet(t, srv, specs[0].Name)
	subs := submissions(testgrid.Jobs(t, 31, 40, 0.3).Jobs)
	half := len(subs) / 2
	for _, spec := range specs {
		tn, aerr := srv.lookup(spec.Name)
		if aerr != nil {
			t.Fatal(aerr)
		}
		if tn.fleet != shared {
			t.Fatalf("%s runs on its own fleet, want the shared one", spec.Name)
		}
		ref := privateTenant(t, spec)
		defer ref.close()
		var snaps, results [2][]byte
		for k, x := range []*tenant{tn, ref} {
			if status, body := x.submitBatch("", subs[:half]); status != http.StatusOK {
				t.Fatalf("%s: submit: %d %s", spec.Name, status, body)
			}
			if _, aerr := x.advance(units.Seconds(subs[half].At - 1)); aerr != nil {
				t.Fatal(aerr)
			}
			snap, aerr := x.snapshot()
			if aerr != nil {
				t.Fatal(aerr)
			}
			snaps[k] = snap
			if status, body := x.submitBatch("", subs[half:]); status != http.StatusOK {
				t.Fatalf("%s: submit: %d %s", spec.Name, status, body)
			}
			x.seal()
			res, aerr := x.result()
			if aerr != nil {
				t.Fatal(aerr)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			results[k] = js
		}
		if !bytes.Equal(snaps[0], snaps[1]) {
			t.Fatalf("%s: snapshot on the shared fleet differs from the private-fleet reference", spec.Name)
		}
		if !bytes.Equal(results[0], results[1]) {
			t.Fatalf("%s: Result on the shared fleet differs from the private-fleet reference:\nshared  %s\nprivate %s", spec.Name, results[0], results[1])
		}
	}
}

// TestFleetReleasedOnEveryPath: a fleet goes when its last tenant goes,
// whichever way the tenants go.
func TestFleetReleasedOnEveryPath(t *testing.T) {
	t.Run("create-conflict-and-delete", func(t *testing.T) {
		srv := New()
		defer srv.Close()
		h := srv.Handler()
		a, b := testSpec("a"), testSpec("b")
		wantStatus(t, do(t, h, "POST", "/v1/tenants", a), http.StatusCreated)
		wantStatus(t, do(t, h, "POST", "/v1/tenants", a), http.StatusConflict)
		wantStatus(t, do(t, h, "POST", "/v1/tenants", b), http.StatusCreated)
		wantFleetsHeld(t, srv, 1)
		wantStatus(t, do(t, h, "DELETE", "/v1/tenants/a", nil), http.StatusNoContent)
		wantFleetsHeld(t, srv, 1)
		wantStatus(t, do(t, h, "DELETE", "/v1/tenants/b", nil), http.StatusNoContent)
		wantFleetsHeld(t, srv, 0)
	})
	t.Run("tenant-build-fails", func(t *testing.T) {
		srv := New()
		defer srv.Close()
		spec := testSpec("bad")
		spec.Scheme = "NoSuchScheme"
		wantStatus(t, do(t, srv.Handler(), "POST", "/v1/tenants", spec), http.StatusUnprocessableEntity)
		wantFleetsHeld(t, srv, 0)
	})
	t.Run("attach-durability-fails", func(t *testing.T) {
		srv := durableServer(t.TempDir())
		defer srv.Close()
		srv.writeFile = func(path string, _ []byte) error {
			return fmt.Errorf("write %s: no space left on device", path)
		}
		wantStatus(t, do(t, srv.Handler(), "POST", "/v1/tenants", testSpec("full")), http.StatusInternalServerError)
		wantFleetsHeld(t, srv, 0)
	})
	t.Run("close", func(t *testing.T) {
		srv := New()
		h := srv.Handler()
		other := testSpec("c")
		other.FleetSeed++
		for _, spec := range []TenantSpec{testSpec("a"), testSpec("b"), other} {
			wantStatus(t, do(t, h, "POST", "/v1/tenants", spec), http.StatusCreated)
		}
		wantFleetsHeld(t, srv, 2)
		srv.Close()
		wantFleetsHeld(t, srv, 0)
	})
	t.Run("load-all-fails", func(t *testing.T) {
		dir := t.TempDir()
		srv := New()
		h := srv.Handler()
		other := testSpec("c")
		other.FleetSeed++
		for _, spec := range []TenantSpec{testSpec("a"), testSpec("b"), other} {
			wantStatus(t, do(t, h, "POST", "/v1/tenants", spec), http.StatusCreated)
		}
		if err := srv.SaveAll(dir); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		// The last tenant LoadAll reaches names an unknown scheme, so it
		// fails after its fleet is acquired and after a and b restored.
		path := filepath.Join(dir, "c"+metaSuffix)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := bytes.Replace(raw, []byte(`"scheme": "ScanEffi"`), []byte(`"scheme": "NoSuchScheme"`), 1)
		if bytes.Equal(bad, raw) {
			t.Fatal("metadata carries no scheme field to corrupt")
		}
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		re := New()
		defer re.Close()
		if _, err := re.LoadAll(dir); err == nil {
			t.Fatal("LoadAll accepted a tenant with an unknown scheme")
		}
		wantFleetsHeld(t, re, 0)
	})
}

// TestLoadAllBuildsEachFleetOnce: five saved tenants on one fleet key
// restore onto one fleet. Every build hands its fleet to the tenant
// that triggered it, so five tenants holding one *Fleet means one
// build.
func TestLoadAllBuildsEachFleetOnce(t *testing.T) {
	dir := t.TempDir()
	srv := New()
	h := srv.Handler()
	specs := schemeSpecs()[:5]
	for _, spec := range specs {
		wantStatus(t, do(t, h, "POST", "/v1/tenants", spec), http.StatusCreated)
	}
	if err := srv.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	re := New()
	defer re.Close()
	if n, err := re.LoadAll(dir); err != nil || n != len(specs) {
		t.Fatalf("LoadAll: %d tenants, err %v", n, err)
	}
	wantFleetsHeld(t, re, 1)
	first := serverFleet(t, re, specs[0].Name)
	for _, spec := range specs[1:] {
		if serverFleet(t, re, spec.Name) != first {
			t.Fatalf("%s restored onto a second fleet", spec.Name)
		}
	}
}

// TestConcurrentCreatesShareOneFleet: creates racing on one key wait
// for a single build and all hold the same *Fleet. The fleet is large
// enough that later creates arrive while the first build runs.
func TestConcurrentCreatesShareOneFleet(t *testing.T) {
	const n = 8
	srv := New()
	defer srv.Close()
	h := srv.Handler()
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range recs {
		spec := testSpec(fmt.Sprintf("c%d", i))
		spec.Procs = 2000
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/tenants", bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(rec *httptest.ResponseRecorder) {
			defer wg.Done()
			h.ServeHTTP(rec, req)
		}(recs[i])
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusCreated {
			t.Fatalf("create c%d: status %d %s", i, rec.Code, rec.Body.String())
		}
	}
	wantFleetsHeld(t, srv, 1)
	first := serverFleet(t, srv, "c0")
	for i := 1; i < n; i++ {
		if serverFleet(t, srv, fmt.Sprintf("c%d", i)) != first {
			t.Fatalf("c%d holds a second fleet", i)
		}
	}
}
