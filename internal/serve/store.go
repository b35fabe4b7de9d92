package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/checkpoint"
)

// KindSpecSource is the record kind of a spec file: one tango.ckpt/1
// snapshot per uploaded specification. The work journal is a
// checkpoint.BatchLog (see journal.go).
const KindSpecSource = "spec-source"

// WorkJournalFile is the work journal's name inside a store directory.
const WorkJournalFile = "work.ckpt"

// specPayload is the durable form of one uploaded specification: enough to
// re-warm the compile cache after a restart. The digest is not stored — it is
// recomputed from the source on load and checked against the file name, so a
// tampered or bit-rotted store entry can never alias another digest.
type specPayload struct {
	Name   string
	Source string
}

// Store is the daemon's durable state directory: uploaded specifications
// (CRC-framed, fsynced, atomically replaced tango.ckpt/1 snapshots under
// specs/), finished batch reports (reports/), and the batch work journal
// (work.ckpt). A Store outlives any single daemon process — crash-only
// serving means the next generation re-warms from it.
//
//	<dir>/specs/<hex-digest>.spec   one KindSpecSource snapshot each
//	<dir>/reports/<batch-id>.json   normalized batch reports
//	<dir>/work.ckpt                 the batch work journal
type Store struct {
	dir  string
	lock *os.File // exclusive advisory lock on <dir>/.lock, held open for life

	// fault, when non-nil, runs before every write with the operation name
	// ("put-spec", "report", ...); returning an error simulates that write
	// failing — the chaos tests' disk-full injection point. Nil in production.
	fault func(op string) error
}

// OpenStore opens (creating as needed) a store directory and takes an
// exclusive advisory lock on it. Two daemons on one store would be ruinous —
// one generation's boot compaction rewriting work.ckpt while the other
// appends to it corrupts the journal and double-runs or loses batches — so a
// second open fails fast instead. The lock is advisory and kernel-released:
// a SIGKILL'd holder frees it the instant the process dies, which is exactly
// the crash-only handoff moment.
func OpenStore(dir string) (*Store, error) {
	for _, sub := range []string{"", "specs", "reports"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	lock, err := lockStoreDir(filepath.Join(dir, ".lock"))
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, lock: lock}, nil
}

// Close releases the store lock, handing the directory to the next
// generation. The daemon calls it after its final drain; a crashed daemon
// never does — the kernel drops the lock with the process.
func (st *Store) Close() error {
	if st.lock == nil {
		return nil
	}
	err := st.lock.Close()
	st.lock = nil
	return err
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// JournalPath returns the work journal's path.
func (st *Store) JournalPath() string { return filepath.Join(st.dir, WorkJournalFile) }

// specPath maps a digest to its store file. Only the hex tail of the digest
// is used, validated strictly, so a hostile digest string cannot traverse.
func (st *Store) specPath(digest string) (string, error) {
	hex := strings.TrimPrefix(digest, "sha256:")
	if len(hex) != 64 {
		return "", fmt.Errorf("store: malformed spec digest %q", digest)
	}
	for _, r := range hex {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return "", fmt.Errorf("store: malformed spec digest %q", digest)
		}
	}
	return filepath.Join(st.dir, "specs", hex+".spec"), nil
}

// PutSpec durably persists one specification source keyed by its digest.
// Writing is idempotent (same digest, same bytes) and atomic: a crash leaves
// either no file or a complete one, never a torn spec. An existing file is
// left untouched — content addressing makes overwrites pointless.
func (st *Store) PutSpec(name, source string) error {
	path, err := st.specPath(SpecDigest(source))
	if err != nil {
		return err
	}
	if _, err := os.Stat(path); err == nil {
		return nil // already persisted
	}
	if st.fault != nil {
		if err := st.fault("put-spec"); err != nil {
			return err
		}
	}
	return checkpoint.WriteSnapshot(path, KindSpecSource, specPayload{Name: name, Source: source})
}

// GetSpec loads one persisted specification by digest. A missing file
// returns os.ErrNotExist; a corrupt or digest-mismatched file returns
// checkpoint.ErrCorruptCheckpoint.
func (st *Store) GetSpec(digest string) (name, source string, err error) {
	path, err := st.specPath(digest)
	if err != nil {
		return "", "", err
	}
	var p specPayload
	if err := checkpoint.ReadSnapshot(path, KindSpecSource, &p); err != nil {
		return "", "", err
	}
	if SpecDigest(p.Source) != digest {
		return "", "", fmt.Errorf("store: %s: %w: content does not match its digest",
			filepath.Base(path), checkpoint.ErrCorruptCheckpoint)
	}
	return p.Name, p.Source, nil
}

// LoadSpecs reads every intact persisted specification, sorted by digest for
// deterministic warm order. Corrupt entries (torn writes, bit rot, digest
// mismatches) are skipped and reported in errs — crash-only: one bad file
// never stops the boot.
func (st *Store) LoadSpecs() (specs []specPayload, errs []error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "specs"))
	if err != nil {
		return nil, []error{err}
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".spec") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, fn := range names {
		digest := "sha256:" + strings.TrimSuffix(fn, ".spec")
		name, source, err := st.GetSpec(digest)
		if err != nil {
			errs = append(errs, fmt.Errorf("store: spec %s: %w", fn, err))
			continue
		}
		specs = append(specs, specPayload{Name: name, Source: source})
	}
	return specs, errs
}

// reportPath maps a batch id to its report file, rejecting ids that could
// escape the reports directory. Batch ids are restricted to a filename-safe
// alphabet at admission (see validBatchID); this is the defense in depth.
func (st *Store) reportPath(id string) (string, error) {
	if !validBatchID(id) {
		return "", fmt.Errorf("store: malformed batch id %q", id)
	}
	return filepath.Join(st.dir, "reports", id+".json"), nil
}

// PutReport atomically writes a finished batch's normalized report.
func (st *Store) PutReport(id string, data []byte) error {
	path, err := st.reportPath(id)
	if err != nil {
		return err
	}
	if st.fault != nil {
		if err := st.fault("report"); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".report-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The rename alone is not durable: fsync the reports directory so a crash
	// right after "report persisted" cannot un-persist it.
	return checkpoint.SyncDir(filepath.Dir(path))
}

// GetReport loads a finished batch's report, or os.ErrNotExist.
func (st *Store) GetReport(id string) ([]byte, error) {
	path, err := st.reportPath(id)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// validBatchID bounds client-supplied batch ids to a filename-safe alphabet.
func validBatchID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return !strings.HasPrefix(id, ".")
}

// errIsNotExist reports whether err is a missing-file error (kept out of the
// handlers for readability).
func errIsNotExist(err error) bool { return errors.Is(err, os.ErrNotExist) }
