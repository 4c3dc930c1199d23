package serve

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"smartexp3/internal/cluster"
)

// specialRewards are the float64 values a codec most easily mangles: NaNs
// with payloads (quiet and signaling), infinities, negative zero and
// subnormals. Snapshots are compared byte for byte, so every one must
// cross the wire bit-identically.
var specialRewards = []float64{
	math.Float64frombits(0x7ff8000000000001), // quiet NaN, payload 1
	math.Float64frombits(0x7ff0000000000001), // signaling NaN
	math.Float64frombits(0xfff8dead0000beef), // negative NaN with payload
	math.Inf(1),
	math.Inf(-1),
	math.Copysign(0, -1),
	math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	-math.SmallestNonzeroFloat64,
	0.5,
}

// randMsg builds a random message of the given tag, filling exactly the
// fields the tag's layout carries. Empty slices are nil, as decoding
// leaves them.
func randMsg(rng *rand.Rand, tag msgTag) *wireMsg {
	str := func() string {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return string(b)
	}
	arm := func() int { return int(int32(rng.Uint32())) }
	items := func() []FeedbackItem {
		var out []FeedbackItem
		for i := rng.Intn(6); i > 0; i-- {
			out = append(out, FeedbackItem{
				Device: rng.Uint64(),
				Arm:    arm(),
				Slot:   rng.Uint64(),
				Reward: specialRewards[rng.Intn(len(specialRewards))],
			})
		}
		return out
	}
	m := &wireMsg{tag: tag}
	switch tag {
	case tagHello:
		m.version = serveProtocolVersion
	case tagHelloAck:
		m.version, m.algorithm, m.err = rng.Uint32(), str(), str()
	case tagSelect:
		m.seq, m.device = rng.Uint64(), rng.Uint64()
		for i := rng.Intn(8); i > 0; i-- {
			m.arms = append(m.arms, arm())
		}
	case tagSelected:
		m.seq, m.arm, m.slot = rng.Uint64(), arm(), rng.Uint64()
	case tagSelectErr:
		m.seq, m.err = rng.Uint64(), str()
	case tagNotOwner:
		m.seq, m.epoch, m.owner = rng.Uint64(), rng.Uint64(), str()
	case tagFeedback:
		m.items = items()
	case tagRejected:
		m.epoch, m.items = rng.Uint64(), items()
	case tagRelease:
		for i := rng.Intn(6); i > 0; i-- {
			m.devices = append(m.devices, rng.Uint64())
		}
	case tagPing, tagPong:
		m.seq = rng.Uint64()
	}
	return m
}

// allTags lists every message of the protocol.
var allTags = []msgTag{
	tagHello, tagHelloAck, tagSelect, tagSelected, tagSelectErr, tagNotOwner,
	tagFeedback, tagRejected, tagRelease, tagPing, tagPong,
}

// sameMsg compares two decoded messages field by field, rewards by their
// bits (NaN != NaN under ==).
func sameMsg(a, b *wireMsg) bool {
	if len(a.items) != len(b.items) {
		return false
	}
	for i := range a.items {
		x, y := a.items[i], b.items[i]
		if math.Float64bits(x.Reward) != math.Float64bits(y.Reward) {
			return false
		}
		x.Reward, y.Reward = 0, 0
		if x != y {
			return false
		}
	}
	ac, bc := *a, *b
	ac.items, bc.items = nil, nil
	return reflect.DeepEqual(ac, bc)
}

// TestCodecRoundTripsEveryMessage is the codec's property test: every
// message of every type decodes to exactly the fields it was encoded
// from, rewards bit-identical, both into a fresh message and into one
// reused across all the others, and its body has exactly its layout's
// length.
func TestCodecRoundTripsEveryMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var reused wireMsg
	for i := 0; i < 2000; i++ {
		want := randMsg(rng, allTags[i%len(allTags)])
		body, err := encodeMsg(nil, want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.tag, err)
		}
		if len(body) != bodyLen(want) {
			t.Fatalf("%v: body of %d bytes, layout says %d", want.tag, len(body), bodyLen(want))
		}
		var got wireMsg
		if err := decodeMsg(&got, body, defaultMaxArms); err != nil {
			t.Fatalf("%v: decode: %v", want.tag, err)
		}
		if !sameMsg(&got, want) {
			t.Fatalf("%v: round trip changed the message:\n got %+v\nwant %+v", want.tag, got, *want)
		}
		if err := decodeMsg(&reused, body, defaultMaxArms); err != nil {
			t.Fatalf("%v: decode into a reused message: %v", want.tag, err)
		}
		again, err := encodeMsg(nil, &reused)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("%v: a reused message re-encodes differently (%v)", want.tag, err)
		}
	}
}

// TestCodecCarriesSpecialRewardsBitExact pins each special float alone,
// in both item-carrying messages.
func TestCodecCarriesSpecialRewardsBitExact(t *testing.T) {
	for _, tag := range []msgTag{tagFeedback, tagRejected} {
		for _, r := range specialRewards {
			m := &wireMsg{tag: tag, epoch: 3, items: []FeedbackItem{{Device: 1, Arm: -1, Slot: 2, Reward: r}}}
			body, err := encodeMsg(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			var got wireMsg
			if err := decodeMsg(&got, body, 0); err != nil {
				t.Fatal(err)
			}
			if g, w := math.Float64bits(got.items[0].Reward), math.Float64bits(r); g != w {
				t.Fatalf("%v: reward bits %#016x came back as %#016x", tag, w, g)
			}
		}
	}
}

// TestCodecRejectsHostileBodies: every malformed body is an error, never
// a panic and never a partial message.
func TestCodecRejectsHostileBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var hostile [][]byte
	hostile = append(hostile, nil, []byte{0}, []byte{12}, []byte{0xff, 1, 2, 3, 4})
	for _, tag := range allTags {
		m := randMsg(rng, tag)
		if tag == tagSelect || tag == tagFeedback || tag == tagRejected || tag == tagRelease {
			for len(m.arms)+len(m.items)+len(m.devices) == 0 {
				m = randMsg(rng, tag) // a non-empty count, so truncation cuts elements
			}
		}
		body, err := encodeMsg(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(body); n++ { // every truncation
			hostile = append(hostile, body[:n])
		}
		hostile = append(hostile, append(append([]byte(nil), body...), 0)) // a trailing byte
	}
	be32 := func(v uint32) []byte { return be.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	seqDev := make([]byte, 16)
	hostile = append(hostile,
		// Counts larger than the bytes that follow.
		cat([]byte{byte(tagSelect)}, seqDev, be32(1000), make([]byte, 12)),
		cat([]byte{byte(tagSelect)}, seqDev, be32(math.MaxUint32)),
		cat([]byte{byte(tagFeedback)}, be32(math.MaxUint32), make([]byte, itemBytes)),
		cat([]byte{byte(tagRejected)}, make([]byte, 8), be32(2), make([]byte, itemBytes)),
		cat([]byte{byte(tagRelease)}, be32(1<<30), make([]byte, 8)),
		// String lengths past the end.
		cat([]byte{byte(tagHelloAck)}, be32(4), be32(math.MaxUint32), be32(0)),
		cat([]byte{byte(tagHelloAck)}, be32(4), be32(0), be32(5), []byte("abc")),
		cat([]byte{byte(tagSelectErr)}, make([]byte, 8), be32(100), []byte("abc")),
		cat([]byte{byte(tagNotOwner)}, make([]byte, 16), be32(math.MaxUint32)),
	)
	for _, body := range hostile {
		var m wireMsg
		if err := decodeMsg(&m, body, defaultMaxArms); err == nil {
			t.Fatalf("hostile body % x decoded as %v", body, m.tag)
		}
	}
}

// TestCodecArmLimitIsARequestError: a well-formed select over MaxArms
// fails with the typed limit error (answered at request level by the
// daemon) and never stores its arms.
func TestCodecArmLimitIsARequestError(t *testing.T) {
	body, err := encodeMsg(nil, &wireMsg{tag: tagSelect, seq: 9, device: 4, arms: []int{1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	var m wireMsg
	err = decodeMsg(&m, body, 4)
	var lim *armLimitError
	if !errors.As(err, &lim) || m.seq != 9 || lim.device != 4 || len(m.arms) != 0 {
		t.Fatalf("over-limit select: err %v, seq %d, arms %v", err, m.seq, m.arms)
	}
	if err := decodeMsg(&m, body, 5); err != nil {
		t.Fatalf("select at the limit refused: %v", err)
	}
}

// TestCodecRefusesArmsOutsideTheWireRange: an arm id the i32 field cannot
// carry is a request-level error at encode time, never a silent
// truncation onto another arm.
func TestCodecRefusesArmsOutsideTheWireRange(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("every int fits the wire's arm field on 32-bit platforms")
	}
	big := math.MaxInt32 + 2
	for _, m := range []*wireMsg{
		{tag: tagSelect, arms: []int{1, big}},
		{tag: tagSelected, arm: big},
		{tag: tagFeedback, items: []FeedbackItem{{Arm: big}}},
	} {
		var req *RequestError
		if _, err := encodeMsg(nil, m); !errors.As(err, &req) {
			t.Fatalf("%v with arm %d: got %v, want a *RequestError", m.tag, big, err)
		}
	}
}

// TestHelloPrefixIsFrozen pins the cross-version handshake contract: a
// hello from any other version may carry more fields after the version,
// and still decodes far enough to be answered with a rejection; only this
// version's hello must match its layout exactly.
func TestHelloPrefixIsFrozen(t *testing.T) {
	var m wireMsg
	future := []byte{byte(tagHello), 0, 0, 0, serveProtocolVersion + 1, 0xaa, 0xbb}
	if err := decodeMsg(&m, future, 0); err != nil || m.version != serveProtocolVersion+1 {
		t.Fatalf("future hello: version %d, err %v", m.version, err)
	}
	current := []byte{byte(tagHello), 0, 0, 0, serveProtocolVersion, 0xaa}
	if err := decodeMsg(&m, current, 0); err == nil {
		t.Fatal("a current-version hello with trailing bytes decoded")
	}
}

// TestCodecDoesNotAllocate gates encodeMsg and decodeMsg: once a
// connection's buffers have grown, encoding and decoding the warm-path
// messages allocates nothing.
func TestCodecDoesNotAllocate(t *testing.T) {
	items := []FeedbackItem{{Device: 1, Arm: 2, Slot: 3, Reward: 0.5}, {Device: 4, Arm: 5, Slot: 6, Reward: 0.25}}
	msgs := []*wireMsg{
		{tag: tagSelect, seq: 1, device: 7, arms: []int{0, 1, 2, 3}},
		{tag: tagSelected, seq: 1, arm: 2, slot: 9},
		{tag: tagFeedback, items: items},
		{tag: tagRejected, epoch: 2, items: items},
		{tag: tagRelease, devices: []uint64{1, 2, 3}},
		{tag: tagPing, seq: 3},
		{tag: tagPong, seq: 3},
	}
	var buf []byte
	var in wireMsg
	roundTrip := func() {
		for _, m := range msgs {
			var err error
			if buf, err = encodeMsg(buf, m); err != nil {
				t.Fatal(err)
			}
			if err := decodeMsg(&in, buf, defaultMaxArms); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrip() // grow the buffers
	if a := testing.AllocsPerRun(200, roundTrip); a != 0 {
		t.Fatalf("warm encode+decode allocates %.1f times per pass", a)
	}
}

// TestWarmWireDecisionDoesNotAllocate gates the whole served decision
// path: a warm Select+Feedback through the client, the binary codec, the
// frame layer, loopback TCP with deadlines armed, the server loop and the
// store allocates nothing on either end.
func TestWarmWireDecisionDoesNotAllocate(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialTest(t, addr)
	arms := []int{0, 1, 2}
	decide := func() {
		arm, err := c.Select(7, arms)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Feedback(7, arm, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ { // warm the device, the buffers and the slot map
		decide()
	}
	if a := testing.AllocsPerRun(300, decide); a != 0 {
		t.Fatalf("warm wire decision allocates %.2f times", a)
	}
}

// TestServerAnswersOversizedArmSetAsRequestError: an arm set over the
// daemon's MaxArms is refused as a bad request, as the store refuses it,
// and the session stays usable.
func TestServerAnswersOversizedArmSetAsRequestError(t *testing.T) {
	_, addr := startServer(t, Config{MaxArms: 4})
	c := dialTest(t, addr)
	var req *RequestError
	if _, err := c.Select(1, []int{1, 2, 3, 4, 5}); !errors.As(err, &req) {
		t.Fatalf("oversized arm set: got %v, want a *RequestError", err)
	}
	if _, err := c.Select(1, []int{1, 2}); err != nil {
		t.Fatalf("session unusable after an oversized arm set: %v", err)
	}
	if n := c.Reconnects(); n != 0 {
		t.Fatalf("an oversized arm set cost %d reconnects", n)
	}
}

// The protocol-3 wire: a gob envelope union in every frame. These are the
// era's type definitions, kept so the test below sends the exact bytes a
// v3 client sent.
type (
	serveEnvelope struct {
		Hello    *serveHelloMsg
		HelloAck *struct {
			Version   int
			Algorithm string
			Err       string
		}
		Select *struct {
			Seq    uint64
			Device uint64
			Arms   []int
		}
		Selected *struct {
			Seq      uint64
			Arm      int
			Slot     uint64
			Err      string
			NotOwner *struct {
				Epoch uint64
				Owner string
			}
		}
		Feedback *struct{ Items []FeedbackItem }
		Rejected *struct {
			Epoch uint64
			Items []FeedbackItem
		}
		Release *struct{ Devices []uint64 }
		Ping    *struct{ Seq uint64 }
		Pong    *struct{ Seq uint64 }
	}
	serveHelloMsg struct{ Version int }
)

// TestServerRefusesGobEraHello: a protocol-3 client's gob hello, followed
// by a gob select, gets its connection closed and creates no device state.
func TestServerRefusesGobEraHello(t *testing.T) {
	store, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := cluster.NewFrameWriter(conn)
	if err := fw.Encode(&serveEnvelope{Hello: &serveHelloMsg{Version: 3}}); err != nil {
		t.Fatal(err)
	}
	sel := &serveEnvelope{}
	sel.Select = &struct {
		Seq    uint64
		Device uint64
		Arms   []int
	}{Seq: 1, Device: 7, Arms: []int{1, 2}}
	_ = fw.Encode(sel) // may fail if the server has already closed
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server kept a gob-era connection open")
		}
	}
	if n := store.Devices(); n != 0 {
		t.Fatalf("a gob-era session created %d devices", n)
	}
}

// FuzzServeCodec: decoding arbitrary bytes never panics, and any body
// that decodes re-encodes to exactly itself (the layout is canonical) —
// except a foreign-version hello, whose extra fields are not kept — and
// from there to a fixed point.
func FuzzServeCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, tag := range allTags {
		body, err := encodeMsg(nil, randMsg(rng, tag))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{byte(tagHello), 0, 0, 0, 9, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m wireMsg
		if decodeMsg(&m, data, 64) != nil {
			return
		}
		b1, err := encodeMsg(nil, &m)
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", m.tag, err)
		}
		if !bytes.Equal(b1, data) && !(m.tag == tagHello && m.version != serveProtocolVersion) {
			t.Fatalf("%v: % x re-encodes as % x", m.tag, data, b1)
		}
		var m2 wireMsg
		if err := decodeMsg(&m2, b1, 64); err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", m.tag, err)
		}
		b2, err := encodeMsg(nil, &m2)
		if err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("%v: no fixed point: % x then % x (%v)", m.tag, b1, b2, err)
		}
	})
}
