package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/serve"
	"repro/specs"
)

// buildTango builds the real binary under test into a temp dir.
func buildTango(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and kills child processes; skipped in -short mode")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build the binary under test")
	}
	bin := filepath.Join(t.TempDir(), "tango")
	build := exec.Command(gobin, "build", "-o", bin, "repro/cmd/tango")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches `tango serve` on a free port and waits for the address
// announcement. The daemon is hard-killed on test cleanup if still running.
func startDaemon(t *testing.T, bin string, extra ...string) (cmd *exec.Cmd, base, logPath string) {
	t.Helper()
	logPath = filepath.Join(t.TempDir(), "daemon.log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...)
	cmd = exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		logf.Close()
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, _ := os.ReadFile(logPath)
		if m := servingLine.FindStringSubmatch(string(raw)); m != nil {
			return cmd, m[1], logPath
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; log:\n%s", raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// daemonPost posts JSON to a daemon and decodes the JSON answer.
func daemonPost(t *testing.T, url string, body any) (int, map[string]any, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	_ = json.Unmarshal(buf.Bytes(), &m)
	return resp.StatusCode, m, buf.Bytes()
}

// awaitReady polls /healthz/ready until the daemon admits traffic.
func awaitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz/ready")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never became ready")
}

// TestServeKillHandoffByteIdentical is the crash-only serving acceptance
// test with a real SIGKILL: daemon A (store-backed) is killed mid-batch with
// no chance to clean up; daemon B boots on the same store, finishes the
// journaled tail during replay, and serves a merged report byte-identical to
// an uninterrupted daemon's. The uploaded spec also survives into B without
// re-upload.
func TestServeKillHandoffByteIdentical(t *testing.T) {
	bin := buildTango(t)
	storeDir := filepath.Join(t.TempDir(), "store")
	refStoreDir := filepath.Join(t.TempDir(), "refstore")

	// A batch slow enough that the kill lands mid-flight: every row is a long
	// valid ack trace.
	traces := make([]map[string]any, 12)
	for i := range traces {
		traces[i] = map[string]any{
			"name":  fmt.Sprintf("ack-%02d", i),
			"trace": strings.Repeat("in A x\nin B y\nout A ack\n", 4000+100*i),
		}
	}
	batchReq := func(digest string) map[string]any {
		return map[string]any{
			"spec_digest": digest, "batch_id": "kh-1",
			"budget": 1_000_000, "deadline_ms": 30_000,
			"traces": traces,
		}
	}

	// Daemon A: upload the spec, start the batch, SIGKILL once the journal
	// holds the admission record and at least one finished row.
	victim, baseA, _ := startDaemon(t, bin, "-store", storeDir)
	awaitReady(t, baseA)
	code, m, _ := daemonPost(t, baseA+"/v1/specs", map[string]any{"spec": specs.Ack, "spec_name": "ack.estelle"})
	if code != http.StatusOK {
		t.Fatalf("spec upload: %d %v", code, m)
	}
	digest, _ := m["spec_digest"].(string)

	go func() {
		// The daemon dies under this request; the error is the point.
		b, _ := json.Marshal(batchReq(digest))
		resp, err := http.Post(baseA+"/v1/batch", "application/json", bytes.NewReader(b))
		if err == nil {
			resp.Body.Close()
		}
	}()

	jpath := filepath.Join(storeDir, serve.WorkJournalFile)
	killed, sawDone := false, false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		recs, _, err := checkpoint.ReplayJournal(jpath)
		if err == nil && len(recs) >= 2 {
			for _, rec := range recs {
				sawDone = sawDone || rec.Kind == checkpoint.KindDone
			}
			if err := victim.Process.Signal(syscall.SIGKILL); err == nil {
				killed = true
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	werr := victim.Wait()
	if !killed {
		t.Fatalf("never saw a journaled row to kill over (wait: %v)", werr)
	}
	if sawDone {
		t.Fatal("batch finished before the kill; grow the traces")
	}
	if werr == nil {
		t.Fatal("victim exited cleanly despite SIGKILL")
	}

	// Daemon B: same store. Readiness implies the journal replay finished.
	_, baseB, logB := startDaemon(t, bin, "-store", storeDir)
	awaitReady(t, baseB)
	logRaw, _ := os.ReadFile(logB)
	if !strings.Contains(string(logRaw), "recover: batch kh-1 finished") {
		t.Fatalf("successor never recovered the batch; log:\n%s", logRaw)
	}
	resp, err := http.Get(baseB + "/v1/batches/kh-1")
	if err != nil {
		t.Fatal(err)
	}
	var handoff bytes.Buffer
	_, _ = handoff.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered report: %d %s", resp.StatusCode, handoff.Bytes())
	}

	// The spec survived the kill: by-digest analysis on B, no re-upload.
	code, m, _ = daemonPost(t, baseB+"/v1/analyze", map[string]any{
		"spec_digest": digest, "trace": "in A x\nin B y\nout A ack\n"})
	if code != http.StatusOK || m["verdict"] != "valid" {
		t.Fatalf("by-digest analyze on successor: %d %v", code, m)
	}

	// Reference: an uninterrupted daemon on a fresh store runs the same batch.
	_, baseR, _ := startDaemon(t, bin, "-store", refStoreDir)
	awaitReady(t, baseR)
	if code, m, _ := daemonPost(t, baseR+"/v1/specs", map[string]any{"spec": specs.Ack, "spec_name": "ack.estelle"}); code != http.StatusOK {
		t.Fatalf("reference upload: %d %v", code, m)
	}
	if code, m, _ := daemonPost(t, baseR+"/v1/batch", batchReq(digest)); code != http.StatusOK {
		t.Fatalf("reference batch: %d %v", code, m)
	}
	resp, err = http.Get(baseR + "/v1/batches/kh-1")
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	_, _ = ref.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference report: %d %s", resp.StatusCode, ref.Bytes())
	}

	if !bytes.Equal(handoff.Bytes(), ref.Bytes()) {
		t.Fatalf("handoff report differs from the uninterrupted reference:\n--- handoff ---\n%s\n--- reference ---\n%s",
			handoff.Bytes(), ref.Bytes())
	}
}
