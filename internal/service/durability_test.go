package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iscope/internal/checkpoint"
	"iscope/internal/scheduler/testgrid"
	"iscope/internal/wal"
)

// durableServer builds a server journaling into dir (SyncOff keeps the
// tests fast; the fsync policy is orthogonal to the logic under test).
func durableServer(dir string) *Server {
	return NewWithOptions(Options{StateDir: dir, Sync: wal.SyncOff})
}

// durableFixture drives a durable server through create + two
// journaled mutations and returns the submissions it used.
func durableFixture(t *testing.T, srv *Server) (spec TenantSpec, first, second []JobSubmission) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	spec = testSpec("dur")
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, spec); err != nil {
		t.Fatalf("create: %v", err)
	}
	subs := submissions(testgrid.Jobs(t, 24, 30, 0.3).Jobs)
	first, second = subs[:12], subs[12:]
	if _, err := c.Submit(ctx, "dur", first); err != nil {
		t.Fatalf("submit first: %v", err)
	}
	if _, err := c.Submit(ctx, "dur", second); err != nil {
		t.Fatalf("submit second: %v", err)
	}
	return spec, first, second
}

// tenantSnapshot reads a tenant's snapshot bytes straight off the
// server (in-package shortcut for byte comparisons).
func tenantSnapshot(t *testing.T, srv *Server, name string) []byte {
	t.Helper()
	tn, aerr := srv.lookup(name)
	if aerr != nil {
		t.Fatalf("lookup %q: %v", name, aerr)
	}
	snap, aerr := tn.snapshot()
	if aerr != nil {
		t.Fatalf("snapshot %q: %v", name, aerr)
	}
	return snap
}

// TestSaveAllReadOnlyDir: a state directory the daemon cannot write
// must surface as a typed *SaveError, not a silent partial save.
func TestSaveAllReadOnlyDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: permission bits are not enforced")
	}
	srv := New()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	if _, err := c.CreateTenant(context.Background(), testSpec("ro")); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	err := srv.SaveAll(dir)
	var serr *SaveError
	if !errors.As(err, &serr) {
		t.Fatalf("SaveAll to read-only dir: got %v, want *SaveError", err)
	}
	if serr.Tenant != "ro" {
		t.Fatalf("SaveError names %q", serr.Tenant)
	}
}

// TestSaveAllShortWrite injects ENOSPC-style failures through the
// writeFile seam: whichever write fails (snapshot or metadata), the
// save must report a typed *SaveError and the previous checkpoint era
// must remain fully loadable — never a torn mix of old and new.
func TestSaveAllShortWrite(t *testing.T) {
	for _, failOn := range []string{snapSuffix, metaSuffix} {
		t.Run("fail-on"+failOn, func(t *testing.T) {
			dir := t.TempDir()
			srv := durableServer(dir)
			defer srv.Close()
			_, first, _ := durableFixture(t, srv)

			// Commit a good era, then mutate further so the next save
			// has something new to write.
			if err := srv.SaveAll(dir); err != nil {
				t.Fatalf("baseline save: %v", err)
			}
			wantSnap := tenantSnapshot(t, srv, "dur")

			realWrite := srv.writeFile
			srv.writeFile = func(path string, data []byte) error {
				if strings.HasSuffix(path, failOn) {
					// Leave a partial temp file behind, like a real
					// out-of-space rename-less failure would.
					_ = os.WriteFile(path+".partial", data[:len(data)/2], 0o644)
					return fmt.Errorf("write %s: no space left on device", path)
				}
				return realWrite(path, data)
			}
			var serr *SaveError
			if err := srv.SaveAll(dir); !errors.As(err, &serr) {
				t.Fatalf("SaveAll with failing %s write: got %v, want *SaveError", failOn, err)
			} else if serr.Tenant != "dur" {
				t.Fatalf("SaveError names %q", serr.Tenant)
			}

			// The failed era must not have displaced the good one.
			re := durableServer(dir)
			defer re.Close()
			n, err := re.LoadAll(dir)
			if err != nil {
				t.Fatalf("load after failed save: %v", err)
			}
			if n != 1 {
				t.Fatalf("loaded %d tenants, want 1", n)
			}
			if got := tenantSnapshot(t, re, "dur"); !bytes.Equal(got, wantSnap) {
				t.Fatalf("recovered snapshot diverged after failed save (%d vs %d bytes)", len(got), len(wantSnap))
			}
			_ = first
		})
	}
}

// TestLoadAllEraMismatch: metadata and snapshot from different
// checkpoint eras must fail the load with ErrEraMismatch and leave
// the server empty, holding no fleet — including tenants that
// restored fine. Healthy tenants sort before, between and after the
// corrupted ones. With two corrupted tenants, one in the middle and
// one at the end, the error names the first in sorted order whichever
// worker reaches it first.
func TestLoadAllEraMismatch(t *testing.T) {
	corruptions := map[string]func(t *testing.T, dir, name string){
		"missing-snapshot": func(t *testing.T, dir, name string) {
			snaps, _ := filepath.Glob(filepath.Join(dir, name+".*"+snapSuffix))
			if len(snaps) == 0 {
				t.Fatal("fixture wrote no snapshot")
			}
			for _, p := range snaps {
				os.Remove(p)
			}
		},
		"wrong-crc": func(t *testing.T, dir, name string) {
			path := filepath.Join(dir, name+metaSuffix)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var meta tenantMeta
			if err := json.Unmarshal(raw, &meta); err != nil {
				t.Fatal(err)
			}
			meta.SnapCRC ^= 0xdeadbeef
			out, err := json.Marshal(meta)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	placements := map[string][]string{
		"last":            {"zz-dur"},
		"middle-and-last": {"mm-dur", "zz-dur"},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			for placement, bad := range placements {
				t.Run(placement, func(t *testing.T) {
					dir := t.TempDir()
					srv := durableServer(dir)
					defer srv.Close()
					ts := httptest.NewServer(srv.Handler())
					defer ts.Close()
					c := &Client{BaseURL: ts.URL}
					for _, name := range []string{"aa-ok", "mm-dur", "pp-ok", "zz-dur"} {
						if _, err := c.CreateTenant(context.Background(), testSpec(name)); err != nil {
							t.Fatal(err)
						}
					}
					if err := srv.SaveAll(dir); err != nil {
						t.Fatal(err)
					}
					srv.Close()
					for _, name := range bad {
						corrupt(t, dir, name)
					}

					re := durableServer(dir)
					defer re.Close()
					n, err := re.LoadAll(dir)
					var lerr *LoadError
					if !errors.As(err, &lerr) {
						t.Fatalf("LoadAll on corrupted era: got %v, want *LoadError", err)
					}
					if !errors.Is(err, ErrEraMismatch) {
						t.Fatalf("LoadAll error %v does not wrap ErrEraMismatch", err)
					}
					if lerr.Tenant != bad[0] {
						t.Fatalf("LoadError names %q, want %q", lerr.Tenant, bad[0])
					}
					if n != 0 {
						t.Fatalf("LoadAll reported %d tenants despite failing", n)
					}
					re.mu.RLock()
					left := len(re.tenants)
					re.mu.RUnlock()
					if left != 0 {
						t.Fatalf("failed load left %d partial tenants", left)
					}
					wantFleetsHeld(t, re, 0)
				})
			}
		})
	}
}

// TestLoadAllRefusesV4Checkpoint: a state directory written by a build
// of checkpoint format 4 is refused as a whole. Its snapshot envelope
// is well-formed and matches its metadata, so the refusal is the typed
// version error, and no tenant is left behind.
func TestLoadAllRefusesV4Checkpoint(t *testing.T) {
	dir := t.TempDir()
	srv := durableServer(dir)
	defer srv.Close()
	durableFixture(t, srv)
	if err := srv.SaveAll(dir); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	snaps, err := filepath.Glob(filepath.Join(dir, "dur.*"+snapSuffix))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v (%v)", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(data[4:6], 4)
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crcBytes(body))
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, "dur"+metaSuffix)
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta tenantMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	meta.SnapCRC = crcBytes(data)
	if raw, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := durableServer(dir)
	defer re.Close()
	n, err := re.LoadAll(dir)
	var lerr *LoadError
	if !errors.As(err, &lerr) || !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("LoadAll of a version-4 state dir: got %v, want a *LoadError wrapping ErrVersion", err)
	}
	re.mu.RLock()
	left := len(re.tenants)
	re.mu.RUnlock()
	if n != 0 || left != 0 {
		t.Fatalf("refused load reported %d tenants and left %d", n, left)
	}
}

// TestServiceTornTail is the end-to-end torn-tail property: with a
// checkpoint plus two journaled submissions on disk, truncating the
// journal inside the final record at EVERY byte offset must recover
// cleanly to the one-submission state, and truncating at the exact
// record boundary recovers both — never a panic, an error, or a
// corrupted tenant.
func TestServiceTornTail(t *testing.T) {
	dir := t.TempDir()
	srv := durableServer(dir)
	_, first, second := durableFixture(t, srv)
	srv.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "dur", "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("journal segments %v err %v", segs, err)
	}
	segData, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Find where the final record begins by replaying offsets: the
	// journal has exactly two records (the create itself is a
	// checkpoint, not a journal entry).
	jr, err := wal.Open(filepath.Join(dir, "wal", "dur"), wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var lens []int
	if err := jr.Replay(0, func(_ uint64, p []byte) error {
		lens = append(lens, len(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if len(lens) != 2 {
		t.Fatalf("journal has %d records, want 2", len(lens))
	}
	const frameHeader = 16
	lastStart := len(segData) - frameHeader - lens[1]
	if lastStart <= 0 {
		t.Fatalf("implausible final record start %d in %d-byte segment", lastStart, len(segData))
	}

	// References: what recovery must produce with only the first
	// submission applied, and with both.
	refSnap := func(batches ...[]JobSubmission) []byte {
		ref := New()
		defer ref.Close()
		tn := privateTenant(t, testSpec("dur"))
		ref.tenants["dur"] = tn
		for _, b := range batches {
			if status, _ := tn.submitBatch("", b); status != http.StatusOK {
				t.Fatalf("reference submit status %d", status)
			}
		}
		return tenantSnapshot(t, ref, "dur")
	}
	wantPrefix := refSnap(first)
	wantFull := refSnap(first, second)

	for cut := lastStart; cut <= len(segData); cut++ {
		work := t.TempDir()
		copyTree(t, dir, work)
		seg := filepath.Join(work, "wal", "dur", filepath.Base(segs[0]))
		if err := os.Truncate(seg, int64(cut)); err != nil {
			t.Fatal(err)
		}
		re := durableServer(work)
		n, err := re.LoadAll(work)
		if err != nil {
			t.Fatalf("cut %d: LoadAll: %v", cut, err)
		}
		if n != 1 {
			t.Fatalf("cut %d: loaded %d tenants", cut, n)
		}
		got := tenantSnapshot(t, re, "dur")
		want := wantPrefix
		if cut == len(segData) {
			want = wantFull
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut %d: recovered snapshot diverged (%d vs %d bytes)", cut, len(got), len(want))
		}
		re.Close()
	}
}

// TestJournalReplayDeterminism is the CI determinism gate: a durable
// server that dies without checkpointing must replay its journal into
// byte-identical state — snapshot bytes and final result JSON — both
// against its own pre-crash self and against a non-durable server fed
// the same mutations directly.
func TestJournalReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	srv := durableServer(dir)
	spec, first, second := durableFixture(t, srv)
	preCrash := tenantSnapshot(t, srv, "dur")
	// Close without SaveAll: like a crash, everything since the
	// creation-time checkpoint lives only in the journal.
	srv.Close()

	re := durableServer(dir)
	defer re.Close()
	if n, err := re.LoadAll(dir); err != nil || n != 1 {
		t.Fatalf("LoadAll: n=%d err=%v", n, err)
	}
	replayed := tenantSnapshot(t, re, "dur")
	if !bytes.Equal(replayed, preCrash) {
		t.Fatalf("replayed snapshot diverged from pre-crash state (%d vs %d bytes)", len(replayed), len(preCrash))
	}

	// Independent reference: no journal, no replay, same mutations.
	ref := New()
	defer ref.Close()
	rtn := privateTenant(t, spec)
	ref.tenants["dur"] = rtn
	for _, b := range [][]JobSubmission{first, second} {
		if status, _ := rtn.submitBatch("", b); status != http.StatusOK {
			t.Fatalf("reference submit status %d", status)
		}
	}
	if got := tenantSnapshot(t, ref, "dur"); !bytes.Equal(replayed, got) {
		t.Fatal("replayed snapshot diverged from direct-application reference")
	}

	for _, s := range []*Server{re, ref} {
		tn, _ := s.lookup("dur")
		if aerr := tn.seal(); aerr != nil {
			t.Fatalf("seal: %v", aerr)
		}
	}
	resA, aerrA := mustResult(t, re, "dur")
	resB, aerrB := mustResult(t, ref, "dur")
	if aerrA != nil || aerrB != nil {
		t.Fatalf("result errors: %v / %v", aerrA, aerrB)
	}
	ja, err := json.Marshal(resA)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(resB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("replayed result diverged:\nreplay %s\nref    %s", ja, jb)
	}
}

// TestLoadAllConcurrent: six durable tenants, one per scheme on a
// shared fleet plus one on a second fleet, each with journaled submits
// and advances past its creation-era checkpoint, die without a
// checkpoint. LoadAll restores them concurrently: every tenant replays
// to its pre-crash snapshot bytes onto the two fleets, and once sealed
// ends with the pre-crash tenant's Result. A second LoadAll of the
// same directory is refused and empties the server.
func TestLoadAllConcurrent(t *testing.T) {
	dir := t.TempDir()
	srv := durableServer(dir)
	h := srv.Handler()
	other := testSpec("other")
	other.FleetSeed++
	specs := append(schemeSpecs(), other)
	subs := submissions(testgrid.Jobs(t, 33, 30, 0.3).Jobs)
	half := len(subs) / 2
	for _, spec := range specs {
		wantStatus(t, do(t, h, "POST", "/v1/tenants", spec), http.StatusCreated)
		path := "/v1/tenants/" + spec.Name
		wantStatus(t, do(t, h, "POST", path+"/jobs", SubmitRequest{Jobs: subs[:half]}), http.StatusOK)
		wantStatus(t, do(t, h, "POST", path+"/advance", AdvanceRequest{To: subs[half].At - 1}), http.StatusOK)
		wantStatus(t, do(t, h, "POST", path+"/jobs", SubmitRequest{Jobs: subs[half:]}), http.StatusOK)
		wantStatus(t, do(t, h, "POST", path+"/advance", AdvanceRequest{To: subs[len(subs)-1].At}), http.StatusOK)
	}
	preCrash := make([]*tenant, len(specs))
	snaps := make([][]byte, len(specs))
	for i, spec := range specs {
		preCrash[i], _ = srv.lookup(spec.Name)
		snaps[i] = tenantSnapshot(t, srv, spec.Name)
	}
	// Close without SaveAll: like a crash, everything since each
	// creation-time checkpoint lives only in the journals. The closed
	// tenants' steppers still run, and with their journals detached a
	// seal journals nothing.
	srv.Close()

	re := durableServer(dir)
	defer re.Close()
	if n, err := re.LoadAll(dir); err != nil || n != len(specs) {
		t.Fatalf("LoadAll: %d tenants, err %v", n, err)
	}
	wantFleetsHeld(t, re, 2)
	for i, spec := range specs {
		if got := tenantSnapshot(t, re, spec.Name); !bytes.Equal(got, snaps[i]) {
			t.Fatalf("%s: replayed snapshot diverged from pre-crash state (%d vs %d bytes)", spec.Name, len(got), len(snaps[i]))
		}
		replayed, _ := re.lookup(spec.Name)
		var results [2][]byte
		for k, tn := range []*tenant{preCrash[i], replayed} {
			if aerr := tn.seal(); aerr != nil {
				t.Fatalf("%s: seal: %v", spec.Name, aerr)
			}
			res, aerr := tn.result()
			if aerr != nil {
				t.Fatalf("%s: result: %v", spec.Name, aerr)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			results[k] = js
		}
		if !bytes.Equal(results[0], results[1]) {
			t.Fatalf("%s: replayed Result diverged:\npre-crash %s\nreplayed  %s", spec.Name, results[0], results[1])
		}
	}

	// Loading the same directory again restores every tenant a second
	// time, then refuses the first name the server already holds and
	// closes both sets, leaving no tenant and no fleet behind.
	_, err := re.LoadAll(dir)
	var lerr *LoadError
	if !errors.As(err, &lerr) || lerr.Tenant != "other" || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("second LoadAll: got %v, want a *LoadError naming \"other\" as already existing", err)
	}
	re.mu.RLock()
	left := len(re.tenants)
	re.mu.RUnlock()
	if left != 0 {
		t.Fatalf("refused load left %d tenants", left)
	}
	wantFleetsHeld(t, re, 0)
}

func mustResult(t *testing.T, s *Server, name string) (any, *APIError) {
	t.Helper()
	tn, aerr := s.lookup(name)
	if aerr != nil {
		t.Fatalf("lookup: %v", aerr)
	}
	return tn.result()
}

// copyTree clones a state directory for destructive edits.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
