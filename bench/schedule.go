package bench

import (
	"hash/fnv"
	"math/rand"
	"time"

	"plabi/internal/etl"
	"plabi/internal/relation"
	"plabi/internal/workload"
)

// The run's -seed is the only source of randomness. Every input stream
// (one per tenant dataset, per client request order, per delta
// schedule) draws from its own generator derived from the seed and the
// stream's label, so adding a stream never perturbs the others.

// derive returns the generator of one named stream.
func derive(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewSource(int64(h.Sum64()) + seed*-0x61c8864680b583eb))
}

// dataSeed is the dataset seed of one named engine (positive: the
// server manifest treats 0 as "use the default").
func dataSeed(seed int64, name string) int64 {
	return 1 + derive(seed, "data:"+name).Int63n(1<<31-1)
}

// ServeOp is one request of a client's closed loop: which tenant, a
// render or a check, and which entry of the request table.
type ServeOp struct {
	Tenant uint8
	Check  bool
	Req    uint8
}

// ServeBlock is the composition of one block of a client's schedule:
// per tenant, PerRender requests of each of Renders reports and PerCheck
// of each of Checks checks. Every block holds exactly these requests, so
// every block — and every seed's schedule — is the same amount of work.
// Drawing each request at random instead would leave the share of the
// costly report (62 ms against 10 at 50 k rows), and with it the
// throughput, to the seed.
type ServeBlock struct {
	Tenants, Renders, Checks int
	PerRender, PerCheck      int
}

// Len is the number of requests in one block.
func (b ServeBlock) Len() int { return b.Tenants * (b.Renders*b.PerRender + b.Checks*b.PerCheck) }

// ServeSchedule generates the request order of one client: blocks
// blocks, each its own seeded permutation of the block's requests.
func ServeSchedule(seed int64, client, blocks int, b ServeBlock) []ServeOp {
	rng := derive(seed, "client:"+string(rune('a'+client)))
	block := make([]ServeOp, 0, b.Len())
	for t := 0; t < b.Tenants; t++ {
		for r := 0; r < b.Renders; r++ {
			for i := 0; i < b.PerRender; i++ {
				block = append(block, ServeOp{Tenant: uint8(t), Req: uint8(r)})
			}
		}
		for c := 0; c < b.Checks; c++ {
			for i := 0; i < b.PerCheck; i++ {
				block = append(block, ServeOp{Tenant: uint8(t), Check: true, Req: uint8(c)})
			}
		}
	}
	ops := make([]ServeOp, 0, blocks*len(block))
	for i := 0; i < blocks; i++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		ops = append(ops, block...)
	}
	return ops
}

// DeltaKind is the shape of one delta batch.
type DeltaKind uint8

// Batch shapes of the delta-mixed workload.
const (
	DeltaInsert DeltaKind = iota
	DeltaUpdate
	DeltaDelete
)

func (k DeltaKind) String() string { return [...]string{"insert", "update", "delete"}[k] }

// Shape of one block of the delta schedule: 40 insert-only batches of 50
// prescriptions, 9 in-place update batches of 10 rows, and one delete
// that removes exactly the rows inserted since the previous delete, so
// the table is back at its base size after every block.
const (
	deltaBlockOps      = 50
	deltaBlockInserts  = 40
	deltaBlockUpdates  = 9
	deltaInsertRows    = 50
	deltaUpdateRows    = 10
	deltaRowsPerDelete = deltaBlockInserts * deltaInsertRows
)

// DeltaOp is one cycle's batch.
type DeltaOp struct {
	Kind  DeltaKind
	Rows  int // source rows inserted, updated or deleted
	Batch etl.Batch
}

// DeltaSchedule generates blocks×50 batches against a prescriptions
// table of baseRows rows. The 49 insert/update batches of a block come
// in seeded order; the delete closes the block. Updates address base
// rows only, so every index is valid whatever the order.
func DeltaSchedule(seed int64, ds *workload.Dataset, baseRows, blocks int) []DeltaOp {
	rng := derive(seed, "delta")
	ops := make([]DeltaOp, 0, blocks*deltaBlockOps)
	nextID := int64(baseRows)
	row := func() relation.Row {
		nextID++
		return relation.Row{
			relation.Int(nextID),
			relation.Str(ds.PatientNames[rng.Intn(len(ds.PatientNames))]),
			relation.Str("Dr. " + ds.PatientNames[rng.Intn(len(ds.PatientNames))]),
			relation.Str(ds.DrugNames[rng.Intn(len(ds.DrugNames))]),
			relation.Str(ds.Diseases[rng.Intn(len(ds.Diseases))]),
			relation.DateYMD(2008, time.Month(1+rng.Intn(12)), 1+rng.Intn(28)),
		}
	}
	for b := 0; b < blocks; b++ {
		kinds := make([]DeltaKind, 0, deltaBlockOps-1)
		for i := 0; i < deltaBlockInserts; i++ {
			kinds = append(kinds, DeltaInsert)
		}
		for i := 0; i < deltaBlockUpdates; i++ {
			kinds = append(kinds, DeltaUpdate)
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			d := etl.Delta{Source: "hospital", Table: "prescriptions"}
			op := DeltaOp{Kind: k}
			if k == DeltaInsert {
				for i := 0; i < deltaInsertRows; i++ {
					d.Inserts = append(d.Inserts, row())
				}
				op.Rows = deltaInsertRows
			} else {
				picked := map[int]bool{}
				for len(d.Updates) < deltaUpdateRows {
					ri := rng.Intn(baseRows)
					if picked[ri] {
						continue
					}
					picked[ri] = true
					d.Updates = append(d.Updates, etl.RowUpdate{Row: ri, Vals: row()})
				}
				op.Rows = deltaUpdateRows
			}
			op.Batch = etl.Batch{Deltas: []etl.Delta{d}}
			ops = append(ops, op)
		}
		del := etl.Delta{Source: "hospital", Table: "prescriptions"}
		for i := 0; i < deltaRowsPerDelete; i++ {
			del.Deletes = append(del.Deletes, baseRows+i)
		}
		ops = append(ops, DeltaOp{Kind: DeltaDelete, Rows: deltaRowsPerDelete,
			Batch: etl.Batch{Deltas: []etl.Delta{del}}})
	}
	return ops
}
