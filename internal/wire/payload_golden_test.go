package wire

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"hiengine/internal/core"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
)

// The payload bytes of every request opcode and every response body, frozen
// as hex. The opcode and code tables (golden_test.go) freeze the numbering;
// this table freezes what follows the opcode byte. A failing case means an
// encoder changed the bytes it emits or a decoder stopped accepting the
// bytes older peers emit: fix the codec, never the literal.

var (
	goldenSQL  = "SELECT v FROM t WHERE k = ?"
	goldenArgs = []core.Value{core.I(7), core.S("x")}
	goldenGTID = "h1.7.9"
	goldenPLog = srss.PLogID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}
	goldenStat = PLogStat{ID: goldenPLog, Tier: srss.TierStorage, Size: 70000, Sealed: true}
)

// goldenPayload is one frozen encoding: enc must produce exactly hex, and
// dec of those bytes must produce want.
type goldenPayload struct {
	name string
	op   Op // request opcode, or OpResponse for a response body
	hex  string
	enc  func() []byte
	dec  func(b []byte) (any, error)
	want any
}

type execReq struct {
	MinCSN uint64
	Fetch  int
	SQL    string
	Args   []core.Value
	Flags  uint64
}

type idReq struct {
	ID    uint64
	Fetch int
}

type fetchReq struct {
	ID       srss.PLogID
	Off      int64
	Max      int
	Epoch    uint64
	Manifest srss.PLogID
	CSN      uint64
}

type decideReq struct {
	GTID   string
	Commit bool
}

type shardReq struct {
	Expect bool
	ID     uint32
}

type greeting struct {
	Role  byte
	Addr  string
	Epoch uint64
}

type resultCSN struct {
	Res *Result
	CSN uint64
}

type page struct {
	ID   uint64
	Done bool
	Res  *Result
}

type batchRes struct {
	Affected []int
	CSN      uint64
}

type chunk struct {
	Stat PLogStat
	Data []byte
}

type state struct {
	State byte
	CSN   uint64
}

type envelope struct {
	Code Code
	Msg  string
	Body []byte
}

func empty(op Op) goldenPayload {
	return goldenPayload{name: op.String(), op: op, hex: "", enc: func() []byte { return nil }}
}

var goldenResult = &Result{
	Columns: []string{"k", "v"},
	Rows:    []core.Row{{core.I(1), core.S("a")}, {core.I(2), core.S("bc")}},
}

func goldenRowData() []byte {
	var b []byte
	for _, r := range goldenResult.Rows {
		b = core.EncodeRow(b, r)
	}
	return b
}

var goldenPayloads = []goldenPayload{
	empty(OpPing),
	{name: "exec", op: OpExec,
		hex: "1b53454c45435420762046524f4d2074205748455245206b203d203f0201" + "0e" + "030178",
		enc: func() []byte { return AppendExec(nil, goldenSQL, goldenArgs) },
		dec: func(b []byte) (any, error) {
			sql, args, err := DecodeExec(b)
			return execReq{SQL: sql, Args: args}, err
		},
		want: execReq{SQL: goldenSQL, Args: goldenArgs}},
	empty(OpBegin),
	empty(OpCommit),
	empty(OpAbort),
	empty(OpStats),
	{name: "prepare", op: OpPrepare,
		hex:  "1b53454c45435420762046524f4d2074205748455245206b203d203f",
		enc:  func() []byte { return EncodePrepare(goldenSQL) },
		dec:  func(b []byte) (any, error) { return DecodePrepare(b) },
		want: goldenSQL},
	{name: "exec_stmt", op: OpExecStmt,
		hex: "03" + "02010e030178",
		enc: func() []byte { return AppendExecStmt(nil, 3, goldenArgs) },
		dec: func(b []byte) (any, error) {
			id, args, err := DecodeExecStmt(b)
			return execReq{MinCSN: id, Args: args}, err
		},
		want: execReq{MinCSN: 3, Args: goldenArgs}},
	{name: "close_stmt", op: OpCloseStmt,
		hex:  "03",
		enc:  func() []byte { return EncodeHandle(3) },
		dec:  func(b []byte) (any, error) { return DecodeHandle(b) },
		want: uint64(3)},
	{name: "exec_at", op: OpExecAt,
		hex: "ac02" + "1b53454c45435420762046524f4d2074205748455245206b203d203f02010e030178",
		enc: func() []byte { return AppendExecAt(nil, 300, goldenSQL, goldenArgs) },
		dec: func(b []byte) (any, error) {
			csn, exec, err := DecodeExecAt(b)
			if err != nil {
				return nil, err
			}
			sql, args, err := DecodeExec(exec)
			return execReq{MinCSN: csn, SQL: sql, Args: args}, err
		},
		want: execReq{MinCSN: 300, SQL: goldenSQL, Args: goldenArgs}},
	{name: "repl_hello", op: OpReplHello,
		hex:  "05",
		enc:  func() []byte { return EncodeReplHelloReq(5) },
		dec:  func(b []byte) (any, error) { return DecodeReplHelloReq(b) },
		want: uint64(5)},
	empty(OpReplList),
	{name: "repl_fetch", op: OpReplFetch,
		hex: "0102030405060708090a0b0c0d0e0f101112131415161718" + "8020" + "808004" + "05",
		enc: func() []byte { return EncodeReplFetch(goldenPLog, 4096, 65536, 5) },
		dec: func(b []byte) (any, error) {
			id, off, max, epoch, err := DecodeReplFetch(b)
			return fetchReq{ID: id, Off: off, Max: max, Epoch: epoch}, err
		},
		want: fetchReq{ID: goldenPLog, Off: 4096, Max: 65536, Epoch: 5}},
	{name: "shard_map", op: OpShardMap,
		hex: "02",
		enc: func() []byte { return EncodeShardMapReq(true, 2) },
		dec: func(b []byte) (any, error) {
			expect, id, err := DecodeShardMapReq(b)
			return shardReq{expect, id}, err
		},
		want: shardReq{true, 2}},
	{name: "txn_prepare", op: OpTxnPrepare,
		hex:  "0668312e372e39",
		enc:  func() []byte { return EncodeGTID(goldenGTID) },
		dec:  func(b []byte) (any, error) { return DecodeGTID(b) },
		want: goldenGTID},
	{name: "txn_decide", op: OpTxnDecide,
		hex: "0668312e372e39" + "01",
		enc: func() []byte { return EncodeTxnDecide(goldenGTID, true) },
		dec: func(b []byte) (any, error) {
			g, commit, err := DecodeTxnDecide(b)
			return decideReq{g, commit}, err
		},
		want: decideReq{goldenGTID, true}},
	{name: "txn_status", op: OpTxnStatus,
		hex:  "0668312e372e39",
		enc:  func() []byte { return EncodeGTID(goldenGTID) },
		dec:  func(b []byte) (any, error) { return DecodeGTID(b) },
		want: goldenGTID},
	empty(OpTxnRecover),
	{name: "txn_forget", op: OpTxnForget,
		hex:  "0668312e372e39",
		enc:  func() []byte { return EncodeGTID(goldenGTID) },
		dec:  func(b []byte) (any, error) { return DecodeGTID(b) },
		want: goldenGTID},
	{name: "scan_open", op: OpScanOpen,
		hex: "8004" + "1b53454c45435420762046524f4d2074205748455245206b203d203f02010e030178",
		enc: func() []byte { return AppendScanOpen(nil, 512, goldenSQL, goldenArgs) },
		dec: func(b []byte) (any, error) {
			fetch, sql, args, err := DecodeScanOpen(b)
			return execReq{Fetch: fetch, SQL: sql, Args: args}, err
		},
		want: execReq{Fetch: 512, SQL: goldenSQL, Args: goldenArgs}},
	{name: "scan_next", op: OpScanNext,
		hex: "09" + "8001",
		enc: func() []byte { return EncodeScanNext(9, 128) },
		dec: func(b []byte) (any, error) {
			id, fetch, err := DecodeScanNext(b)
			return idReq{id, fetch}, err
		},
		want: idReq{9, 128}},
	{name: "scan_close", op: OpScanClose,
		hex:  "09",
		enc:  func() []byte { return EncodeHandle(9) },
		dec:  func(b []byte) (any, error) { return DecodeHandle(b) },
		want: uint64(9)},
	{name: "exec_batch", op: OpExecBatch,
		hex: "02" + "1b53454c45435420762046524f4d2074205748455245206b203d203f02010e030178" + "0144" + "00",
		enc: func() []byte {
			return AppendExecBatch(nil, []BatchStmt{{goldenSQL, goldenArgs}, {"D", nil}})
		},
		dec:  func(b []byte) (any, error) { return DecodeExecBatch(b) },
		want: []BatchStmt{{goldenSQL, goldenArgs}, {"D", core.Row{}}}},
	// The statement flags trailer: the rows above, which carry none, are the
	// same payloads byte for byte.
	{name: "exec + begin", op: OpExec,
		hex: "1b53454c45435420762046524f4d2074205748455245206b203d203f0201" + "0e" + "030178" + "01",
		enc: func() []byte { return AppendStmtFlags(AppendExec(nil, goldenSQL, goldenArgs), FlagBegin) },
		dec: func(b []byte) (any, error) {
			sql, args, flags, err := DecodeExecFlags(b, nil)
			return execReq{SQL: sql, Args: args, Flags: flags}, err
		},
		want: execReq{SQL: goldenSQL, Args: goldenArgs, Flags: FlagBegin}},
	{name: "exec_stmt + begin", op: OpExecStmt,
		hex: "03" + "02010e030178" + "01",
		enc: func() []byte { return AppendStmtFlags(AppendExecStmt(nil, 3, goldenArgs), FlagBegin) },
		dec: func(b []byte) (any, error) {
			id, args, flags, err := DecodeExecStmtFlags(b, nil)
			return execReq{MinCSN: id, Args: args, Flags: flags}, err
		},
		want: execReq{MinCSN: 3, Args: goldenArgs, Flags: FlagBegin}},

	// Response bodies, and the envelope they ride in.
	{name: "response envelope", op: OpResponse,
		hex: "0001" + "03" + "6c6f73" + "beef",
		enc: func() []byte { return AppendResponse(nil, CodeConflict, "los", []byte{0xbe, 0xef}) },
		dec: func(b []byte) (any, error) {
			r, err := DecodeResponseFrame(Frame{Op: OpResponse, Payload: b})
			return envelope{r.Code, r.Msg, r.Body}, err
		},
		want: envelope{CodeConflict, "los", []byte{0xbe, 0xef}}},
	{name: "greeting", op: OpResponse,
		hex: "48494752" + "01" + "0d31302e302e302e313a37363039" + "04",
		enc: func() []byte { return EncodeGreeting(RoleReplica, "10.0.0.1:7609", 4) },
		dec: func(b []byte) (any, error) {
			role, addr, epoch, ok := DecodeGreeting(b)
			if !ok {
				return nil, ErrPayloadCorrupt
			}
			return greeting{role, addr, epoch}, nil
		},
		want: greeting{RoleReplica, "10.0.0.1:7609", 4}},
	{name: "result + csn", op: OpResponse,
		hex: "00" + "02" + "016b" + "0176" + "02" + "020102030161" + "0201040302" + "6263" + "ac02",
		enc: func() []byte {
			return AppendEncodedResultCSN(nil, 0, goldenResult.Columns, 2, goldenRowData(), 300)
		},
		dec: func(b []byte) (any, error) {
			r, csn, err := DecodeResultCSN(b, nil)
			return resultCSN{r, csn}, err
		},
		want: resultCSN{goldenResult, 300}},
	{name: "write result + csn", op: OpResponse,
		hex: "03" + "00" + "00" + "ac02",
		enc: func() []byte { return AppendEncodedResultCSN(nil, 3, nil, 0, nil, 300) },
		dec: func(b []byte) (any, error) {
			r, csn, err := DecodeResultCSN(b, nil)
			return resultCSN{r, csn}, err
		},
		want: resultCSN{&Result{Affected: 3}, 300}},
	{name: "prepare result", op: OpResponse,
		hex: "03" + "02",
		enc: func() []byte { return EncodePrepareResult(3, 2) },
		dec: func(b []byte) (any, error) {
			id, n, err := DecodePrepareResult(b)
			return idReq{id, n}, err
		},
		want: idReq{3, 2}},
	{name: "cursor page", op: OpResponse,
		hex: "09" + "01" + "00" + "02" + "016b" + "0176" + "02" + "020102030161" + "0201040302" + "6263",
		enc: func() []byte {
			return AppendCursorPage(nil, 9, true, goldenResult.Columns, 2, goldenRowData())
		},
		dec: func(b []byte) (any, error) {
			id, done, r, err := DecodeCursorPage(b)
			return page{id, done, r}, err
		},
		want: page{9, true, goldenResult}},
	{name: "batch result", op: OpResponse,
		hex: "03" + "01" + "00" + "8001" + "ac02",
		enc: func() []byte { return AppendBatchResult(nil, []int{1, 0, 128}, 300) },
		dec: func(b []byte) (any, error) {
			aff, csn, err := DecodeBatchResult(b)
			return batchRes{aff, csn}, err
		},
		want: batchRes{[]int{1, 0, 128}, 300}},
	{name: "repl hello body", op: OpResponse,
		hex: "0102030405060708090a0b0c0d0e0f101112131415161718" + "ac02" + "04",
		enc: func() []byte { return EncodeReplHello(goldenPLog, 300, 4) },
		dec: func(b []byte) (any, error) {
			m, csn, epoch, err := DecodeReplHello(b)
			return fetchReq{Manifest: m, CSN: csn, Epoch: epoch}, err
		},
		want: fetchReq{Manifest: goldenPLog, CSN: 300, Epoch: 4}},
	{name: "repl list body", op: OpResponse,
		hex:  "01" + "0102030405060708090a0b0c0d0e0f101112131415161718" + "01" + "01" + "f0a204",
		enc:  func() []byte { return EncodeReplList([]PLogStat{goldenStat}) },
		dec:  func(b []byte) (any, error) { return DecodeReplList(b) },
		want: []PLogStat{goldenStat}},
	{name: "repl chunk body", op: OpResponse,
		hex: "0102030405060708090a0b0c0d0e0f101112131415161718" + "01" + "01" + "f0a204" + "cafe",
		enc: func() []byte { return EncodeReplChunk(goldenStat, []byte{0xca, 0xfe}) },
		dec: func(b []byte) (any, error) {
			st, data, err := DecodeReplChunk(b)
			return chunk{st, data}, err
		},
		want: chunk{goldenStat, []byte{0xca, 0xfe}}},
	{name: "shard map body", op: OpResponse,
		hex: "07" + "01" + "02" + "0161" + "026262",
		enc: func() []byte {
			return EncodeShardMap(&ShardMap{Version: 7, SelfID: 1, Addrs: []string{"a", "bb"}})
		},
		dec:  func(b []byte) (any, error) { return DecodeShardMap(b) },
		want: &ShardMap{Version: 7, SelfID: 1, Addrs: []string{"a", "bb"}}},
	{name: "txn state body", op: OpResponse,
		hex: "02" + "ac02",
		enc: func() []byte { return EncodeTxnState(TxnCommitted, 300) },
		dec: func(b []byte) (any, error) {
			st, csn, err := DecodeTxnState(b)
			return state{st, csn}, err
		},
		want: state{TxnCommitted, 300}},
	{name: "txn csn body", op: OpResponse,
		hex:  "ac02",
		enc:  func() []byte { return AppendTxnCSN(nil, 300) },
		dec:  func(b []byte) (any, error) { return DecodeTxnCSN(b) },
		want: uint64(300)},
	{name: "gtid list body", op: OpResponse,
		hex:  "02" + "0668312e372e39" + "0178",
		enc:  func() []byte { return EncodeGTIDList([]string{goldenGTID, "x"}) },
		dec:  func(b []byte) (any, error) { return DecodeGTIDList(b) },
		want: []string{goldenGTID, "x"}},
}

func TestGoldenPayloads(t *testing.T) {
	seen := make(map[Op]bool)
	for _, g := range goldenPayloads {
		seen[g.op] = true
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad hex literal: %v", g.name, err)
		}
		if got := g.enc(); hex.EncodeToString(got) != g.hex {
			t.Errorf("%s: encoding changed:\n got %x\nwant %s", g.name, got, g.hex)
		}
		if g.dec == nil {
			continue
		}
		got, err := g.dec(want)
		if err != nil {
			t.Errorf("%s: frozen bytes no longer decode: %v", g.name, err)
			continue
		}
		if !reflect.DeepEqual(got, g.want) {
			t.Errorf("%s: decoded %+v, want %+v", g.name, got, g.want)
		}
	}
	for op := Op(1); op <= MaxOp; op++ {
		if validRequest(op) && !seen[op] {
			t.Errorf("request opcode %s has no golden payload", op)
		}
	}
}

// The trace block carries a clock reading, so the frozen bytes are checked
// on the decode side and the encoder against its own decoder.
func TestGoldenTraceBlock(t *testing.T) {
	const frozen = "02" + "00" + "00" + "e807" + "06" + "f403" + "e807" + "a846" + "03" + "03" + "03"
	b, _ := hex.DecodeString(frozen)
	ti, rest, err := DecodeTraceBlock(append(b, 0xff))
	if err != nil {
		t.Fatal(err)
	}
	want := &TraceInfo{Shard: 2, HasShard: true, TotalNS: 9000, Batch: 3, PlanHit: true, PlanMiss: true,
		Stages: []StageTiming{{obs.StageFrameRead, 0, 1000}, {obs.StageSRSSReplicate, 500, 1000}}}
	if !reflect.DeepEqual(ti, want) || len(rest) != 1 {
		t.Fatalf("frozen trace block decoded to %+v (rest %x), want %+v", ti, rest, want)
	}

	tr := obs.NewTracer(obs.TracerConfig{SampleEvery: 1}).Start(99, true)
	tr.AddSpan(obs.StageFrameRead, 0, 1000)
	tr.AddSpan(obs.StageSRSSReplicate, 500, 1000)
	tr.SetBatch(3)
	tr.PlanCache(true)
	tr.PlanCache(false)
	tr.SetShard(2)
	got, _, err := DecodeTraceBlock(AppendTraceBlock(nil, tr))
	tr.Discard()
	if err != nil {
		t.Fatal(err)
	}
	got.TotalNS = want.TotalNS
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("encoded trace block decodes to %+v, want %+v", got, want)
	}
}

// trailerCase drives one decoder that ends in an optional trailing uvarint.
type trailerCase struct {
	name string
	base string // hex of the payload without its trailer
	dec  func(b []byte) (uint64, error)
}

var trailerCases = []trailerCase{
	{"result csn", "03" + "00" + "00", func(b []byte) (uint64, error) {
		_, csn, err := DecodeResultCSN(b, nil)
		return csn, err
	}},
	{"result csn, rows skipped", "00" + "02" + "016b" + "0176" + "02" + "020102030161" + "0201040302" + "6263", ResultCSN},
	{"greeting epoch", "48494752" + "00" + "00", func(b []byte) (uint64, error) {
		_, _, epoch, ok := DecodeGreeting(b)
		if !ok {
			return 0, ErrPayloadCorrupt
		}
		return epoch, nil
	}},
	{"repl hello request epoch", "", DecodeReplHelloReq},
	{"repl hello reply epoch", "0102030405060708090a0b0c0d0e0f101112131415161718" + "ac02", func(b []byte) (uint64, error) {
		_, _, epoch, err := DecodeReplHello(b)
		return epoch, err
	}},
	{"repl fetch epoch", "0102030405060708090a0b0c0d0e0f101112131415161718" + "8020" + "808004", func(b []byte) (uint64, error) {
		_, _, _, epoch, err := DecodeReplFetch(b)
		return epoch, err
	}},
	// Which flag bits mean something is the server's call (it refuses the
	// ones it does not know with bad_request); the codec carries any value.
	{"exec flags", "0144" + "00", func(b []byte) (uint64, error) {
		_, _, flags, err := DecodeExecFlags(b, nil)
		return flags, err
	}},
	{"exec_stmt flags", "03" + "02010e030178", func(b []byte) (uint64, error) {
		_, _, flags, err := DecodeExecStmtFlags(b, nil)
		return flags, err
	}},
}

// One rule for every optional trailer: absent is 0, present is its value,
// bytes after it belong to a newer peer and are ignored, and a varint that
// stops short is corrupt.
func TestOptionalTrailers(t *testing.T) {
	for _, c := range trailerCases {
		base, err := hex.DecodeString(c.base)
		if err != nil {
			t.Fatal(err)
		}
		with := func(suffix ...byte) []byte { return append(append([]byte(nil), base...), suffix...) }
		if v, err := c.dec(with()); err != nil || v != 0 {
			t.Errorf("%s: absent trailer = %d, %v; want 0", c.name, v, err)
		}
		if v, err := c.dec(with(0xac, 0x02)); err != nil || v != 300 {
			t.Errorf("%s: present trailer = %d, %v; want 300", c.name, v, err)
		}
		if v, err := c.dec(with(0xac, 0x02, 0x07, 0xff)); err != nil || v != 300 {
			t.Errorf("%s: trailer followed by a newer peer's bytes = %d, %v; want 300", c.name, v, err)
		}
		if _, err := c.dec(with(0xac)); !errors.Is(err, ErrPayloadCorrupt) {
			t.Errorf("%s: truncated trailer: err = %v, want ErrPayloadCorrupt", c.name, err)
		}
	}
}
