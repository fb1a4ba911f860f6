package bgp

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
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
