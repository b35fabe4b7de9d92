package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/obs"
)

// FuzzReadSnapshot feeds arbitrary bytes through the snapshot reader: it must
// never panic and never report success with garbage — every outcome is either
// a clean decode of a well-formed file or a typed error.
func FuzzReadSnapshot(f *testing.F) {
	good, err := encodeRecord(KindAnalysis, payload{Name: "seed", Count: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(Magic))
	f.Add(append([]byte(Magic), good...))
	f.Add(append([]byte(Magic), good[:len(good)/2]...))
	f.Add([]byte("tango.ckpt/2\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "s.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out payload
		err := ReadSnapshot(path, KindAnalysis, &out)
		if err != nil && !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("untyped error from ReadSnapshot: %v", err)
		}
	})
}

// FuzzReplayJournal: arbitrary bytes must replay without panicking, and any
// failure must be the typed corruption error.
func FuzzReplayJournal(f *testing.F) {
	rec, err := encodeRecord(KindRow, rowRecord{ID: "b", Index: 3, RowJSON: []byte(`{"trace":"t"}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(Magic), rec...))
	f.Add(append(append([]byte(Magic), rec...), rec[:5]...))
	f.Add([]byte(Magic))
	f.Add([]byte("nonsense"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, truncated, err := ReplayJournal(path)
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("untyped error from ReplayJournal: %v", err)
			}
			return
		}
		_ = truncated
		for i := range recs {
			var r loggedRow
			_ = recs[i].Decode(&r)
		}
	})
}

// fuzzAdmission is the admission payload of FuzzReplayBatchLog; Seq names
// the record that admitted the batch.
type fuzzAdmission struct {
	ID  string
	Seq int
}

func (a fuzzAdmission) BatchID() string { return a.ID }

// FuzzReplayBatchLog decodes its input as a sequence of batch-log records —
// admissions, rows, stops and done marks, legacy CLI kinds, duplicates,
// records for unknown IDs and negative indexes, undecodable payloads, raw
// payload bytes and a torn tail — writes them as a log file and replays it.
// Replay must never panic and must apply the first-wins rules exactly as a
// reference model does, and compacting the replayed plan and replaying it
// again must give the same plan.
//
// Input layout: byte 0 bit 0 tears the last record; then 3-byte ops
// (op, id, arg). Each row and admission carries its op's sequence number, so
// the model can tell which record won.
func FuzzReplayBatchLog(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 1, 1, 0})
	f.Add([]byte{1, 0, 1, 0, 0, 1, 1, 1, 1, 2, 2, 1, 2, 2, 1, 4, 2, 2, 0, 3, 1, 0})
	f.Add([]byte{0, 4, 0, 0, 5, 0, 1, 5, 0, 1, 6, 1, 0, 6, 2, 1, 1, 3, 255, 7, 1, 5})

	ids := []string{"", "a", "b", "c"}
	kinds := []string{KindAdmit, KindRow, KindStop, KindDone}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		torn := in[0]&1 == 1
		in = in[1:]

		// The reference model of the replay rules.
		type mBatch struct {
			seq    int
			rows   map[int]int
			stopAt int
			done   bool
		}
		model := map[string]*mBatch{}
		var order []string
		exact := true // false once a raw payload might decode to anything

		buf := bytes.NewBufferString(Magic)
		var lastFrame []byte
		var applies []func()
		for seq := 0; len(in) >= 3; seq, in = seq+1, in[3:] {
			op, id, arg := in[0]%8, ids[in[1]%4], int(int8(in[2]))%6
			var frame []byte
			var err error
			var apply func()
			row := func(id string, idx int) func() {
				return func() {
					if b := model[id]; b != nil && idx >= 0 {
						if _, dup := b.rows[idx]; !dup {
							b.rows[idx] = seq
						}
					}
				}
			}
			switch op {
			case 0, 4: // admission, current or legacy kind
				kind := KindAdmit
				if op == 4 {
					kind = KindBatchMeta
				}
				frame, err = encodeRecord(kind, fuzzAdmission{ID: id, Seq: seq})
				apply = func() {
					if model[id] == nil {
						model[id] = &mBatch{seq: seq, rows: map[int]int{}, stopAt: -1}
						order = append(order, id)
					}
				}
			case 1:
				data, _ := json.Marshal(obs.BatchItem{Trace: strconv.Itoa(seq)})
				frame, err = encodeRecord(KindRow, rowRecord{ID: id, Index: arg, RowJSON: data})
				apply = row(id, arg)
			case 2:
				frame, err = encodeRecord(KindStop, stopRecord{ID: id, Index: arg})
				apply = func() {
					if b := model[id]; b != nil && arg >= 0 && b.stopAt < 0 {
						b.stopAt = arg
					}
				}
			case 3:
				frame, err = encodeRecord(KindDone, doneRecord{ID: id})
				apply = func() {
					if b := model[id]; b != nil {
						b.done = true
					}
				}
			case 5: // legacy CLI row: gob Item, no ID
				frame, err = encodeRecord(KindBatchItem, struct {
					Index int
					Item  obs.BatchItem
				}{arg, obs.BatchItem{Trace: strconv.Itoa(seq)}})
				apply = row("", arg)
			case 6: // undecodable: wrong payload type, or a row that is not JSON
				if arg%2 == 0 {
					frame, err = encodeRecord(kinds[in[1]%4], "not a record")
				} else {
					frame, err = encodeRecord(KindRow, rowRecord{ID: id, Index: 0, RowJSON: []byte("{")})
				}
				apply = func() {}
			case 7: // raw payload bytes under a batch-log kind
				n := int(in[2]) % 16
				if n > len(in)-3 {
					n = len(in) - 3
				}
				frame = rawFrame(t, Record{Kind: kinds[in[1]%4], Data: in[3 : 3+n]})
				exact = false
				apply = func() {}
			}
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(frame)
			lastFrame = frame
			applies = append(applies, apply)
		}
		data := buf.Bytes()
		if torn && lastFrame != nil {
			// Cut the last record short; the model must not see it either.
			data = data[:len(data)-len(lastFrame)+len(lastFrame)/2]
			applies = applies[:len(applies)-1]
		}
		for _, apply := range applies {
			apply()
		}
		path := filepath.Join(t.TempDir(), "log.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		plan, err := ReplayBatchLog[fuzzAdmission](path)
		if err != nil {
			t.Fatalf("replay of a well-framed log: %v", err)
		}
		if plan.Truncated != (torn && lastFrame != nil) {
			t.Fatalf("Truncated = %v, torn = %v", plan.Truncated, torn)
		}
		if exact {
			if len(plan.Batches) != len(order) {
				t.Fatalf("%d batches, model has %d", len(plan.Batches), len(order))
			}
			for i, b := range plan.Batches {
				m := model[order[i]]
				if b.Admission.ID != order[i] || b.Admission.Seq != m.seq {
					t.Fatalf("batch %d: admission %+v, want first admission of %q (seq %d)", i, b.Admission, order[i], m.seq)
				}
				if b.StopAt != m.stopAt || b.Done != m.done || len(b.Rows) != len(m.rows) {
					t.Fatalf("batch %q: stop %d done %v rows %d, model stop %d done %v rows %d",
						order[i], b.StopAt, b.Done, len(b.Rows), m.stopAt, m.done, len(m.rows))
				}
				for idx, seq := range m.rows {
					if b.Rows[idx].Trace != strconv.Itoa(seq) {
						t.Fatalf("batch %q row %d: %q won, want the first (seq %d)", order[i], idx, b.Rows[idx].Trace, seq)
					}
				}
			}
		}

		log, err := CompactBatchLog(path, plan.Batches)
		if err != nil {
			if exact {
				t.Fatal(err)
			}
			return // a raw payload decoded to a row JSON cannot encode
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := ReplayBatchLog[fuzzAdmission](path)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := renderPlan(t, plan), renderPlan(t, again); a != b {
			t.Fatalf("compaction changed the plan:\nbefore %s\nafter  %s", a, b)
		}
	})
}

// rawFrame frames rec as encodeRecord would, around arbitrary payload bytes.
func rawFrame(t *testing.T, rec Record) []byte {
	t.Helper()
	var env bytes.Buffer
	if err := gob.NewEncoder(&env).Encode(rec); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 8+env.Len())
	binary.LittleEndian.PutUint32(frame[0:4], uint32(env.Len()))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(env.Bytes(), castagnoli))
	copy(frame[8:], env.Bytes())
	return frame
}

// renderPlan is a canonical rendering of a plan's batches.
func renderPlan(t *testing.T, p *BatchPlan[fuzzAdmission]) string {
	t.Helper()
	b, err := json.Marshal(p.Batches)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
