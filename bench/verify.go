package bench

import (
	"math"

	apiv1 "plabi/api/v1"
	"plabi/internal/enforce"
	"plabi/internal/relation"
)

// Correctness checks compare digests: every served response, every
// rendered table and every rebuilt warehouse table is reduced to one
// FNV-1a hash and compared with the hash of what a reference computed.
// The wire form and the engine form of a result feed the hasher the
// same byte stream, so a served response can be checked against a
// direct render of a twin engine without converting either.

type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) byte(b byte) { *h = (*h ^ hasher(b)) * 1099511628211 }

func (h *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff) // terminator: "ab","c" differs from "a","bc"
}

func (h *hasher) int(v int64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *hasher) decision(outcome, rule, subject string, plas []string, detail string) {
	h.str(outcome)
	h.str(rule)
	h.str(subject)
	h.int(int64(len(plas)))
	for _, p := range plas {
		h.str(p)
	}
	h.str(detail)
}

func (h *hasher) engineDecisions(ds []enforce.Decision) {
	h.int(int64(len(ds)))
	for _, d := range ds {
		h.decision(d.Outcome.String(), d.Rule, d.Subject, d.PLAs, d.Detail)
	}
}

func (h *hasher) wireDecisions(ds []apiv1.Decision) {
	h.int(int64(len(ds)))
	for _, d := range ds {
		h.decision(d.Outcome, d.Rule, d.Subject, d.PLAs, d.Detail)
	}
}

// enforcedDigest hashes a direct render: decisions, row count, masked
// and suppressed counters and (withRows) every cell in text form. A
// statically blocked render hashes as its blocking decisions only, which
// is all the server's pla_blocked envelope carries.
func enforcedDigest(enf *enforce.Enforced, withRows bool) uint64 {
	h := newHasher()
	if blocked := enforce.Blocked(enf.Decisions); len(blocked) > 0 {
		h.str("blocked")
		h.engineDecisions(blocked)
		return uint64(h)
	}
	h.str("render")
	h.engineDecisions(enf.Decisions)
	h.int(int64(enf.Table.NumRows()))
	h.int(int64(enf.MaskedCells))
	h.int(int64(enf.SuppressedRows))
	if withRows {
		for _, r := range enf.Table.Rows {
			for _, v := range r {
				h.str(v.String())
			}
		}
	}
	return uint64(h)
}

// responseDigest is enforcedDigest over the wire form of a delivered
// render.
func responseDigest(resp *apiv1.RenderResponse, withRows bool) uint64 {
	h := newHasher()
	h.str("render")
	h.wireDecisions(resp.Decisions)
	h.int(int64(resp.TotalRows))
	h.int(int64(resp.MaskedCells))
	h.int(int64(resp.SuppressedRows))
	if withRows {
		for _, r := range resp.Rows {
			for _, v := range r {
				h.str(v)
			}
		}
	}
	return uint64(h)
}

// blockedDigest is enforcedDigest's blocked branch over a pla_blocked
// error envelope.
func blockedDigest(e *apiv1.Error) uint64 {
	h := newHasher()
	h.str("blocked")
	h.wireDecisions(e.Decisions)
	return uint64(h)
}

// findingsDigest hashes a static check's verdict as the engine returns
// it; checkDigest is the same over the wire form.
func findingsDigest(findings []enforce.Decision) uint64 {
	h := newHasher()
	h.str("check")
	h.engineDecisions(findings)
	return uint64(h)
}

func checkDigest(resp *apiv1.CheckResponse) uint64 {
	h := newHasher()
	h.str("check")
	if resp.Compliant != (len(resp.Findings) == 0) {
		h.str("inconsistent")
	}
	h.wireDecisions(resp.Findings)
	return uint64(h)
}

// tableChecksum hashes every cell of a table (materializing a
// segment-backed one) without allocating per cell.
func tableChecksum(t *relation.Table) (rows int, sum uint64, err error) {
	m, err := t.Materialize()
	if err != nil {
		return 0, 0, err
	}
	h := newHasher()
	for _, r := range m.Rows {
		for _, v := range r {
			h.byte(byte(v.Kind))
			switch v.Kind {
			case relation.TString:
				h.str(v.S)
			case relation.TInt:
				h.int(v.I)
			case relation.TFloat:
				h.int(int64(math.Float64bits(v.F)))
			case relation.TBool:
				if v.B {
					h.byte(1)
				}
			case relation.TDate:
				h.int(v.T.Unix())
			}
		}
	}
	return len(m.Rows), uint64(h), nil
}
