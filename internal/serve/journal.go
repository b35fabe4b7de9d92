package serve

import (
	"crypto/sha256"
	"fmt"
	"strconv"
)

// The work journal is the handoff channel between daemon generations. It is
// the store's checkpoint.BatchLog: every accepted /v1/batch appends one
// admission record (a workBatchRec: the whole request plus the limits it was
// admitted under), each finished row appends one row record, a mid-batch
// breaker trip appends a stop record, and the finished batch appends a done
// record. A successor booting on the same store replays the log, keeps the
// rows that were already done verbatim (exactly-once: a row is never
// re-analyzed once recorded), re-runs only the missing ones under the
// *recorded* limits, and writes the same normalized report the uninterrupted
// daemon would have — byte-identical, because the analyzer is deterministic
// under fixed limits.

// workBatchRec is the admission record of one accepted batch: the request
// fields plus the resolved limits. Limits are captured at admission on
// purpose — a successor replays under the limits the client was promised,
// not under whatever load the successor happens to boot into, or the
// recovered report would diverge from the uninterrupted one.
type workBatchRec struct {
	ID         string
	Tenant     string
	SpecDigest string

	Order         string
	DisabledIPs   []string
	UnobservedIPs []string
	Hash          bool
	Memo          bool

	// Resolved limits (not the client's asks).
	Budget     int64
	DeadlineMS int64
	Degraded   bool

	Traces []batchTrace
}

// BatchID implements checkpoint.Admission.
func (r workBatchRec) BatchID() string { return r.ID }

// deriveBatchID computes the deterministic ID of a batch request that names
// none: a content hash over the spec digest, options and every trace. Only
// client-supplied fields go into the hash — the *requested* budget/deadline,
// never the resolved limits, which depend on instantaneous load (the
// degradation clamp) and would give a blind retry of the identical request a
// different ID under different load, re-running the batch instead of
// answering from the stored report. The same batch retried against a
// successor lands on the same journal key and report file, which is what
// makes client retries idempotent; the admitted limits are captured in the
// workBatchRec instead.
func deriveBatchID(digest string, req *batchRequest) string {
	h := sha256.New()
	put := func(s string) {
		var n [8]byte
		v := uint64(len(s))
		for i := range n {
			n[i] = byte(v >> (8 * i))
		}
		h.Write(n[:])
		h.Write([]byte(s))
	}
	put(digest)
	put(req.Order)
	for _, s := range req.DisabledIPs {
		put("disable:" + s)
	}
	for _, s := range req.UnobservedIPs {
		put("unobserved:" + s)
	}
	put(strconv.FormatBool(req.Hash) + "/" + strconv.FormatBool(req.Memo))
	put(strconv.FormatInt(req.Budget, 10) + "/" + strconv.FormatInt(req.DeadlineMS, 10))
	for _, t := range req.Traces {
		put(t.Name)
		put(t.Trace)
		put(t.Expect)
	}
	return fmt.Sprintf("b-%x", h.Sum(nil))[:34]
}
