package sstar

import (
	"fmt"
	"math"
	"testing"

	"sstar/internal/bench"
)

// analysisBits is the byte-identity fingerprint of an Analysis, one hash per
// artifact so a failure names the stage that moved: both permutations, the
// static structure (URows, LCols), the partition (Start, UCols, LRows,
// UBlocks, LBlocks, Choice) and the structure key. Timings are excluded;
// everything else an analysis carries is a function of these.
type analysisBits struct {
	Perm, Static, Partition, Key uint64
}

func (b analysisBits) String() string {
	return fmt.Sprintf("{%#016x, %#016x, %#016x, %#016x}", b.Perm, b.Static, b.Partition, b.Key)
}

// hashAnalysis computes the fingerprint with the package's FNV-1a word fold.
// Every list is folded with its length first, so concatenations that differ
// only in where one list ends and the next begins hash apart.
func hashAnalysis(an *Analysis) analysisBits {
	ints := func(h uint64, xs []int) uint64 {
		h = fnvWord(h, len(xs))
		for _, x := range xs {
			h = fnvWord(h, x)
		}
		return h
	}
	lists := func(h uint64, xss [][]int32) uint64 {
		h = fnvWord(h, len(xss))
		for _, xs := range xss {
			h = fnvWord(h, len(xs))
			for _, x := range xs {
				h = fnvWord(h, int(x))
			}
		}
		return h
	}
	sym := an.sym
	var b analysisBits
	b.Perm = ints(ints(fnvOffset64, sym.RowPerm), sym.ColPerm)
	st := sym.Static
	b.Static = lists(lists(fnvWord(fnvOffset64, st.N), st.URows), st.LCols)
	p := sym.Partition
	h := fnvWord(fnvWord(fnvOffset64, p.N), p.NB)
	h = ints(h, p.Start)
	h = lists(lists(lists(lists(h, p.UCols), p.LRows), p.UBlocks), p.LBlocks)
	ch := p.Choice
	adaptive := 0
	if ch.Adaptive {
		adaptive = 1
	}
	h = fnvWord(fnvWord(fnvWord(h, adaptive), ch.MaxBlock), ch.Amalgamate)
	b.Partition = fnvWord(h, int(math.Float64bits(ch.ModelCost)))
	b.Key = an.Key()
	return b
}

// analysisGolden pins the analysis of every case analysisCases builds. A
// failure logs every current line; a deliberate change of analysis bytes
// replaces the lines it moves and names them in CHANGES.md.
var analysisGolden = map[string]analysisBits{
	"sherman5@0.3/default":       {0x8b7d876df7cd7a75, 0x06594c79e31ed47e, 0x3fcab7abd3ed13b9, 0xd54a58f7ad0f4e4a},
	"sherman5@0.3/paper":         {0x8b7d876df7cd7a75, 0x06594c79e31ed47e, 0xd467341029cf7cfd, 0xa00748025d5f3c57},
	"lnsp3937@0.3/default":       {0x7982694ddee796dd, 0x7a6760b29a19bb70, 0x0a4f2cdea4011d3c, 0x6e34c7ae9ea1662e},
	"lnsp3937@0.3/paper":         {0x7982694ddee796dd, 0x7a6760b29a19bb70, 0x5930c4dd5e5e0587, 0x03b46cdb63a20133},
	"lns3937@0.3/default":        {0x87fbcb134d5c5215, 0xf6e259c7a1544df5, 0x296e8cb8dbbe4f24, 0x5a27c2baaf1f4c61},
	"lns3937@0.3/paper":          {0x87fbcb134d5c5215, 0xf6e259c7a1544df5, 0x46cfd6e5b2125d79, 0x6fbe7a6248e6c17c},
	"sherman3@0.3/default":       {0xfa04bc72093dd3e5, 0x3bd8427749b41a3f, 0x4a323abb5d58969b, 0x17104dcbde4b8d17},
	"sherman3@0.3/paper":         {0xfa04bc72093dd3e5, 0x3bd8427749b41a3f, 0x5cff9ed8415a113f, 0x4c535ec12dfb9f0a},
	"jpwh991@0.3/default":        {0x5ac2e566e88a78ed, 0x6d723172808936c0, 0x4e21b354527a393c, 0x3a99325f937f289c},
	"jpwh991@0.3/paper":          {0x5ac2e566e88a78ed, 0x6d723172808936c0, 0x38d21010fa7802b5, 0x25027ab7f9b7b381},
	"orsreg1@0.3/default":        {0x7e0f7756319db625, 0x298fc6eeef80941a, 0x74bf61156081fcfa, 0x9cee49006ab2fec6},
	"orsreg1@0.3/paper":          {0x7e0f7756319db625, 0x298fc6eeef80941a, 0xfe3cd8493ffb6daf, 0x87f91c975f17a1db},
	"saylr4@0.3/default":         {0x09a96bf7cbd4daf5, 0xed698cc2a5797d47, 0xe6ed6f23c8b921cb, 0xa7949970077c6047},
	"saylr4@0.3/paper":           {0x09a96bf7cbd4daf5, 0xed698cc2a5797d47, 0x9995fa0488f36ab1, 0x87ee0739b5f4825a},
	"goodwin@0.3/default":        {0x6799b9073ea90545, 0x863517636c1a340f, 0x492b3f7f25b27dc5, 0x3749f91247ab0eb7},
	"goodwin@0.3/paper":          {0x6799b9073ea90545, 0x863517636c1a340f, 0xcf3181ebe3c85830, 0x6c8d0a07975b20aa},
	"e40r0100@0.3/default":       {0x088995fe7ae65675, 0x0b37b9c6b357b784, 0xa1f9acd9497db233, 0x9e144bb252b6fd0b},
	"e40r0100@0.3/paper":         {0x088995fe7ae65675, 0x0b37b9c6b357b784, 0x4c53ce48ce999a00, 0x5e1fd4efbd1a6a16},
	"ex11@0.3/default":           {0x6ea60edaa81cdfa5, 0x609e57b3dda0cdad, 0x324a4c026e879eea, 0x308e1c1fa24011be},
	"ex11@0.3/paper":             {0x6ea60edaa81cdfa5, 0x609e57b3dda0cdad, 0xcca53e649ef07a1e, 0x1af7647808789ca3},
	"raefsky4@0.3/default":       {0xf3893f1f62d94f25, 0x4e7d708e3800bb2f, 0x2f255358be15f95d, 0x9778f9a13ff68922},
	"raefsky4@0.3/paper":         {0xf3893f1f62d94f25, 0x4e7d708e3800bb2f, 0x78999f9aee3d79b0, 0xb7c117161faa7f3f},
	"inaccura@0.3/default":       {0x3e4ee3599808a065, 0x4768bd3a959af8f7, 0xe330643ac7309391, 0xde1d58f8314ff2e2},
	"inaccura@0.3/paper":         {0x3e4ee3599808a065, 0x4768bd3a959af8f7, 0x923e8db139bf05bb, 0xfe65766d1103e8ff},
	"af23560@0.3/default":        {0x06b621df35d15205, 0x6033bce6bdad4cd7, 0x03d1667fa025bb09, 0xf579e9d617aa81bf},
	"af23560@0.3/paper":          {0x06b621df35d15205, 0x6033bce6bdad4cd7, 0x21536e0a6fa69fc6, 0xd531cc6137f68ba2},
	"vavasis3@0.3/default":       {0xd0a9dd06256f3ec5, 0x69092f4e9de74a97, 0x5bc9b30a55df2ff9, 0x10a8d362948df572},
	"vavasis3@0.3/paper":         {0xd0a9dd06256f3ec5, 0x69092f4e9de74a97, 0xf8e941d95d7ba9fe, 0x85da94031579db6f},
	"sherman5@0.6/default":       {0xa14f721463159425, 0x2cd4078a66581215, 0xdc46cbd12cc1e366, 0x7f6f9ff8a8331900},
	"sherman5@0.6/default/patch": {0xa14f721463159425, 0x50e90ed39878904e, 0x1e1454b46343d606, 0xfd526ae675ba82da},
	"sherman5@0.6/paper":         {0xa14f721463159425, 0x2cd4078a66581215, 0xa3a8fbdbeb757cce, 0x9fb7bd6d87e70f1d},
	"sherman5@0.6/paper/patch":   {0xa14f721463159425, 0x50e90ed39878904e, 0xe03d7d769ae6b673, 0x1cf8fd1cc74260c7},
	"circuit5000/default":        {0x20b3fa713a8079a5, 0xd4325b023be5de8f, 0x0a8a909cdfd0fbee, 0x5354c4f8c281f326},
	"circuit5000/default/patch":  {0x20b3fa713a8079a5, 0xf47c4a41dd2778ef, 0x01ed7071d9846c0d, 0x8df7de94fdbd9de4},
	"circuit5000/paper":          {0x20b3fa713a8079a5, 0xd4325b023be5de8f, 0xb8ef001f5bb835ba, 0x3e5f988fb6e6963b},
	"circuit5000/paper/patch":    {0x20b3fa713a8079a5, 0xf47c4a41dd2778ef, 0xf13a90043c9ede26, 0x7902b22bf22240f9},
	"af23560@0.45/default":       {0x4aa1aa4428407095, 0x4618243327f2c2de, 0xeafc2c5f2266676f, 0xc2fd35104baef682},
	"af23560@0.45/default/patch": {0x4aa1aa4428407095, 0xcb5e7aaa2e962bfe, 0x060ca03f2edc5cc7, 0xa25ef15503340a6b},
	"af23560@0.45/paper":         {0x4aa1aa4428407095, 0x4618243327f2c2de, 0x32f9b02d4f235854, 0xe34552852b62ec9f},
	"af23560@0.45/paper/patch":   {0x4aa1aa4428407095, 0xcb5e7aaa2e962bfe, 0x66855087f0e3314f, 0x626a7a926d977776},
}

// analysisCase is one line of the golden table: a case name of the form
// matrix@scale/options[/patch] and the analysis it names.
type analysisCase struct {
	name string
	an   *Analysis
}

// analysisCases lists the golden table's cases in a fixed order: the suite
// at scale 0.3 and the cold-start bases under both option sets, plus one
// Analysis.Patch near miss per cold-start base and option set.
func analysisCases(t *testing.T) []analysisCase {
	var out []analysisCase
	add := func(name string, an *Analysis) { out = append(out, analysisCase{name, an}) }
	analyze := func(a *Matrix, o Options) *Analysis {
		an, err := Analyze(a, o)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}
	opts := []struct {
		name string
		o    Options
	}{{"default", DefaultOptions()}, {"paper", PaperOptions()}}
	for _, sp := range bench.Suite() {
		a := sp.Gen(0.3)
		for _, o := range opts {
			add(sp.Name+"@0.3/"+o.name, analyze(a, o.o))
		}
	}
	for _, c := range coldBases() {
		miss := coldNearMiss(c.a, 36)
		for _, o := range opts {
			an := analyze(c.a, o.o)
			add(c.name+"/"+o.name, an)
			patched, info, err := an.Patch(miss)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Patched {
				t.Fatalf("%s/%s: near miss fell back to a full analyze (%s)", c.name, o.name, info.Fallback)
			}
			add(c.name+"/"+o.name+"/patch", patched)
		}
	}
	return out
}

// TestAnalysisGolden pins the bytes of the analyze phase — permutations,
// static structure, partition and structure key — on the suite and the
// cold-start bases, fresh and patched.
func TestAnalysisGolden(t *testing.T) {
	cases := analysisCases(t)
	if len(cases) != len(analysisGolden) {
		t.Errorf("%d cases, %d golden lines", len(cases), len(analysisGolden))
	}
	var lines []string
	for _, c := range cases {
		got := hashAnalysis(c.an)
		line := fmt.Sprintf("%q: %v,", c.name, got)
		lines = append(lines, line)
		if want, ok := analysisGolden[c.name]; !ok || got != want {
			t.Errorf("%s: analysis bits %v, want %v", c.name, got, want)
		}
	}
	if t.Failed() {
		for _, l := range lines {
			t.Log(l)
		}
	}
}
