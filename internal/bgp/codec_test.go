package bgp

import (
	"bytes"
	"encoding/hex"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rrr/internal/trie"
)

func randomUpdate(rng *rand.Rand) Update {
	u := Update{
		Time:   rng.Int63n(1 << 40),
		PeerIP: rng.Uint32(),
		PeerAS: ASN(rng.Uint32()),
		Prefix: trie.MakePrefix(rng.Uint32(), uint8(rng.Intn(25))),
		MED:    rng.Uint32(),
	}
	if rng.Intn(10) == 0 {
		u.Type = Withdraw
		return u
	}
	n := 1 + rng.Intn(6)
	u.ASPath = make(Path, n)
	for i := range u.ASPath {
		u.ASPath[i] = ASN(rng.Intn(65000) + 1)
	}
	m := rng.Intn(5)
	for i := 0; i < m; i++ {
		u.Communities = append(u.Communities,
			MakeCommunity(ASN(rng.Intn(65000)+1), uint16(rng.Intn(65536))))
	}
	return u
}

// canonical removes fields a codec legitimately does not carry for a given
// update type so round-trip comparison is well defined.
func canonical(u Update) Update {
	if u.Type == Withdraw {
		u.ASPath, u.Communities, u.MED = nil, nil, 0
	}
	if len(u.ASPath) == 0 {
		u.ASPath = nil
	}
	if len(u.Communities) == 0 {
		u.Communities = nil
	}
	return u
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var in []Update
	for i := 0; i < 200; i++ {
		in = append(in, randomUpdate(rng))
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, u := range in {
		if err := w.Write(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewBinaryReader(&buf)
	for i, want := range in {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(canonical(got), canonical(want)) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// goldenUpdates are the records whose encodings TestBinaryGolden pins: an
// announcement with a 5-hop path and 3 communities, and a withdrawal with
// an empty path and no communities.
func goldenUpdates() []Update {
	return []Update{
		{Time: 1700000123, PeerIP: 0xc0000201, PeerAS: 64512, Type: Announce,
			Prefix: trie.MakePrefix(0x0a010000, 16), MED: 50,
			ASPath: Path{64512, 3356, 1299, 2914, 15169},
			Communities: Communities{MakeCommunity(3356, 100), MakeCommunity(65535, 666),
				MakeCommunity(1299, 2000)}},
		{Time: -7, PeerIP: 0x0a000001, PeerAS: 4200000000, Type: Withdraw,
			Prefix: trie.MakePrefix(0xc6336400, 24)},
	}
}

// TestBinaryGolden pins the binary record bytes: AppendBinary and
// BinaryWriter must both produce them, and Decoder.Decode must read them
// back to the same update.
func TestBinaryGolden(t *testing.T) {
	golden := []string{
		"b64d0100000000006553f17bc00002010000fc000a010000100000003200050000fc0000000d1c0000051300000b6200003b4100030d1c0064ffff029a051307d0",
		"b64d0101fffffffffffffff90a000001fa56ea00c6336400180000000000000000",
	}
	for i, u := range goldenUpdates() {
		b, err := AppendBinary([]byte{0xee}, u)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b[1:]); got != golden[i] || b[0] != 0xee {
			t.Errorf("AppendBinary(update %d) = %s, want %s after the existing byte", i, got, golden[i])
		}
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		if err := w.Write(u); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		if got := hex.EncodeToString(buf.Bytes()); got != golden[i] {
			t.Errorf("BinaryWriter(update %d) = %s, want %s", i, got, golden[i])
		}
		var d Decoder
		back, err := d.Decode(b[1:])
		if err != nil || !reflect.DeepEqual(back, u) {
			t.Errorf("Decode(update %d) = %+v, %v; want %+v", i, back, err, u)
		}
	}
}

// TestDecodeBinaryExact: Decoder.Decode reads one whole record, so a cut
// anywhere is io.ErrUnexpectedEOF and any byte after it is refused.
func TestDecodeBinaryExact(t *testing.T) {
	b, err := AppendBinary(nil, goldenUpdates()[0])
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	for cut := 0; cut < len(b); cut++ {
		if _, err := d.Decode(b[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d/%d: err = %v, want io.ErrUnexpectedEOF", cut, len(b), err)
		}
	}
	if _, err := d.Decode(append(b, 0)); err != errTrailingBytes {
		t.Fatalf("trailing byte: err = %v, want %v", err, errTrailingBytes)
	}
}

// TestBinaryWriterTooLong: an oversized attribute list is refused before
// any byte of the record is written.
func TestBinaryWriterTooLong(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Write(Update{ASPath: make(Path, 0x10000)}); err == nil {
		t.Fatal("Write accepted a 65536-hop path")
	}
	w.Flush()
	if buf.Len() != 0 {
		t.Fatalf("refused record left %d bytes in the stream", buf.Len())
	}
}

func TestBinaryTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	u := Update{Time: 1, PeerIP: 2, PeerAS: 3, Type: Announce,
		Prefix: trie.MakePrefix(0x0a000000, 8), ASPath: Path{3, 4}}
	if err := w.Write(u); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := NewBinaryReader(bytes.NewReader(full[:cut]))
		if _, err := r.Read(); err == nil {
			t.Fatalf("truncated at %d bytes: want error", cut)
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	r := NewBinaryReader(bytes.NewReader([]byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0}))
	if _, err := r.Read(); err != errBadMagic {
		t.Fatalf("want errBadMagic, got %v", err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var in []Update
	for i := 0; i < 100; i++ {
		u := randomUpdate(rng)
		// The text format prints peer AS and communities in 16-bit AS
		// space; clamp for round-trip fidelity.
		u.PeerAS = ASN(uint32(u.PeerAS) % 65000)
		in = append(in, u)
	}
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	for _, u := range in {
		if err := w.Write(u); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r := NewTextReader(&buf)
	for i, want := range in {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(canonical(got), canonical(want)) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestTextParsePaperExample(t *testing.T) {
	// The record from the paper's Fig 3, adapted to our TIME field.
	const rec = `TIME: 1600855212
TYPE: ANNOUNCE
FROM: 195.66.224.175 AS13030
ASPATH: 13030 1299 2914 18747
COMMUNITY: 13030:2 13030:1299 13030:7214 13030:51701
MED: 0
ANNOUNCE: 200.61.128.0/19

`
	r := NewTextReader(strings.NewReader(rec))
	u, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if u.PeerAS != 13030 || trie.FormatIP(u.PeerIP) != "195.66.224.175" {
		t.Errorf("peer = %s", VPKey{u.PeerIP, u.PeerAS})
	}
	if !u.ASPath.Equal(Path{13030, 1299, 2914, 18747}) {
		t.Errorf("path = %v", u.ASPath)
	}
	if len(u.Communities) != 4 || u.Communities[3] != MakeCommunity(13030, 51701) {
		t.Errorf("communities = %v", u.Communities)
	}
	if u.Prefix.String() != "200.61.128.0/19" {
		t.Errorf("prefix = %v", u.Prefix)
	}
}

func TestTextErrors(t *testing.T) {
	cases := []string{
		"TIME: x\nTYPE: ANNOUNCE\nFROM: 1.2.3.4 AS5\nANNOUNCE: 10.0.0.0/8\n\n",
		"TIME: 1\nTYPE: BOGUS\nFROM: 1.2.3.4 AS5\nANNOUNCE: 10.0.0.0/8\n\n",
		"TIME: 1\nTYPE: ANNOUNCE\nFROM: 1.2.3.4\nANNOUNCE: 10.0.0.0/8\n\n",
		"TIME: 1\nTYPE: ANNOUNCE\nFROM: 1.2.3.4 AS5\nANNOUNCE: 10.0.0.0/99\n\n",
		"TIME: 1\nTYPE: ANNOUNCE\nFROM: 1.2.3.4 AS5\nBOGUSKEY: 1\n\n",
		"noline\n\n",
		"TIME: 1\n\n", // incomplete record
	}
	for i, c := range cases {
		r := NewTextReader(strings.NewReader(c))
		if _, err := r.Read(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestTextWithdraw(t *testing.T) {
	u := Update{Time: 5, PeerIP: 0x01010101, PeerAS: 42, Type: Withdraw,
		Prefix: trie.MakePrefix(0x0a000000, 8)}
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	if err := w.Write(u); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if !strings.Contains(buf.String(), "WITHDRAW: 10.0.0.0/8") {
		t.Fatalf("output = %q", buf.String())
	}
	r := NewTextReader(&buf)
	got, err := r.Read()
	if err != nil || got.Type != Withdraw || got.Prefix != u.Prefix {
		t.Fatalf("got %+v, %v", got, err)
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	us := make([]Update, 256)
	for i := range us {
		us[i] = randomUpdate(rng)
	}
	w := NewBinaryWriter(io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Write(us[i&255])
	}
}

func BenchmarkBinaryRead(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for i := 0; i < 4096; i++ {
		w.Write(randomUpdate(rng))
	}
	w.Flush()
	data := buf.Bytes()
	b.ResetTimer()
	var r *BinaryReader
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			r = NewBinaryReader(bytes.NewReader(data))
		}
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBinaryReaderAllocs is the stream decoder's allocation budget: its
// Decoder carves every record's Path and Communities from chunks of a few
// hundred records' words, so a read allocates ≤ 0.01 times, amortised —
// reader construction included. Before the chunks it was 2 per record.
func TestBinaryReaderAllocs(t *testing.T) {
	const records, budget = 20000, 0.01
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for i := 0; i < records; i++ {
		if err := w.Write(randomUpdate(rng)); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewBinaryReader(bytes.NewReader(buf.Bytes()))
	n := 0
	for ; ; n++ {
		if _, err := r.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n != records {
		t.Fatalf("read %d records, wrote %d", n, records)
	}
	per := float64(after.Mallocs-before.Mallocs) / records
	t.Logf("%.4f allocations per record", per)
	if per > budget {
		t.Fatalf("%.4f allocations per record, budget %v", per, budget)
	}
}
