//! The one program grammar of the differential tests: seeded,
//! deterministic OPS5 programs and working-memory op traces.
//!
//! A program has 2–3 classes of arity 2–3 and 1–4 rules of 1–3 positive
//! CEs plus 0–2 negated CEs. Positive CEs join earlier ones by `=` or by
//! `{op <X>}` for every op, or test a constant (`c`, `{op c}`); a class
//! may fill several CEs of one rule, joined or variable-disjoint. A
//! negated CE sits after some positive prefix and joins 0, 1 or 2 of its
//! variables; two negated CEs on one rule may chain. RHSs `remove`,
//! `make`, `modify` and `write`. Values come from one pool: small ints
//! (so duplicate WMEs occur), floats equal to some of them, strings,
//! `nil` and the extremes of the numeric range. A trace of up to 60 ops
//! inserts, removes a live tuple, removes an absent one, or bounces
//! (inserts then removes the same tuple); its length and its share of
//! removals are drawn per case. A [`Bias`] leans a block of cases towards
//! one property: joins of two or three CEs, negation, deletions, bounces.

use ops5::ClassId;
use prodsys::{Strategy, WmChange};
use relstore::{Tuple, Value};

/// A splitmix64 stream: the whole grammar's only source of choice.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `percent`/100.
    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

const OPS: [&str; 5] = ["<", "<=", ">", ">=", "<>"];

/// Everything but the small ints: equal `Int`/`Float` pairs, strings,
/// `nil`, and values at and past the ends of `i64`.
const RARE: &str = "1.0 2.0 a b nil -9223372036854775808 9223372036854775807 \
    9000000000000000000 -9000000000000000000 9e18 -9e18 1e19 -1e19";

/// One value of the pool, as OPS5 source text: a small int unless
/// `rare` percent of the time.
fn atom(rng: &mut Rng, rare: usize) -> &'static str {
    let words: Vec<&'static str> = if rng.chance(rare) { RARE } else { "0 1 2" }
        .split(' ')
        .collect();
    words[rng.below(words.len())]
}

/// Parse a value as [`show`] prints it.
fn value(s: &str) -> Value {
    if s == "nil" {
        Value::Null
    } else if let Ok(i) = s.parse::<i64>() {
        Value::Int(i)
    } else if let Ok(f) = s.parse::<f64>() {
        Value::Float(f)
    } else {
        Value::str(s)
    }
}

/// Print a value so that [`value`] reads it back.
fn show(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("{f:?}"),
        v => v.to_string(),
    }
}

/// One change of a trace, on class index `.0`.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Insert(usize, Tuple),
    /// Remove one WME equal to the tuple; a no-op when none is live.
    Remove(usize, Tuple),
    /// Insert the tuple, then remove it.
    Bounce(usize, Tuple),
}

impl Op {
    /// The WM changes the op makes.
    pub fn changes(&self) -> Vec<WmChange> {
        match self {
            Op::Insert(c, t) => vec![WmChange::Insert(ClassId(*c), t.clone())],
            Op::Remove(c, t) => vec![WmChange::Remove(ClassId(*c), t.clone())],
            Op::Bounce(c, t) => [Op::Insert(*c, t.clone()), Op::Remove(*c, t.clone())]
                .iter()
                .flat_map(Op::changes)
                .collect(),
        }
    }

    /// Read `+C v…` (insert), `-C v…` (remove) or `~C v…` (bounce).
    pub fn parse(s: &str) -> Op {
        let mut words = s[1..].split_whitespace();
        let class = words.next().and_then(|c| c.parse().ok()).expect("class");
        let tuple = Tuple::new(words.map(value).collect::<Vec<_>>());
        match &s[..1] {
            "+" => Op::Insert(class, tuple),
            "-" => Op::Remove(class, tuple),
            "~" => Op::Bounce(class, tuple),
            _ => panic!("bad op {s:?}"),
        }
    }
}

impl From<workload::Op> for Op {
    fn from(op: workload::Op) -> Op {
        match op {
            workload::Op::Insert(c, t) => Op::Insert(c, t),
            workload::Op::Remove(c, t) => Op::Remove(c, t),
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (sign, class, tuple) = match self {
            Op::Insert(c, t) => ('+', c, t),
            Op::Remove(c, t) => ('-', c, t),
            Op::Bounce(c, t) => ('~', c, t),
        };
        write!(f, "{sign}{class}")?;
        tuple
            .values()
            .iter()
            .try_for_each(|v| write!(f, " {}", show(v)))
    }
}

/// What the generated cases of one block lean towards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bias {
    /// The grammar as drawn.
    Any,
    /// Every rule has two positive CEs, the second joined to the first.
    TwoWayJoins,
    /// Every rule has three positive CEs, each joined to an earlier one.
    ThreeWayJoins,
    /// Every rule has one or two negated CEs.
    Negation,
    /// Removals of live tuples outnumber inserts.
    DeleteHeavy,
    /// Half the ops are bounces.
    Bounces,
}

/// A program and a trace for the differential driver.
#[derive(Debug, Clone)]
pub struct Case {
    /// The seed it was generated from, if any.
    pub seed: Option<u64>,
    /// OPS5 source.
    pub src: String,
    pub ops: Vec<Op>,
    /// Changes per `apply_delta` batch on the batched delivery.
    pub width: usize,
    /// Recognize-act cycles each engine runs after the trace.
    pub cycles: usize,
    /// Run on paged storage too, not only in memory.
    pub paged: bool,
    /// How the executor picks from the conflict set after the trace.
    pub strategy: Strategy,
}

impl Case {
    /// A hand-written case; ops as [`Op::parse`] reads them.
    pub fn named(src: &str, ops: &[&str]) -> Case {
        Case {
            seed: None,
            src: src.to_string(),
            ops: ops.iter().map(|s| Op::parse(s)).collect(),
            width: 3,
            cycles: 200,
            paged: true,
            strategy: Strategy::Canonical,
        }
    }

    /// A hand-written case that first inserts `load`, rows named by class.
    pub fn loaded(src: &str, load: &[(&str, Tuple)], ops: &[&str]) -> Case {
        let rules = ops5::compile(src).expect("case compiles");
        let mut case = Case::named(src, ops);
        let load = load
            .iter()
            .map(|(name, t)| Op::Insert(rules.class_id(name).unwrap().0, t.clone()));
        case.ops.splice(0..0, load);
        case
    }

    /// The case the grammar draws from `seed`, leaning towards `bias`.
    pub fn generate(seed: u64, bias: Bias) -> Case {
        let mut rng = Rng(seed);
        let arities: Vec<usize> = (0..rng.range(2, 3)).map(|_| rng.range(2, 3)).collect();
        // Percent of values drawn from `RARE`: fewer joins, more edges.
        let rare = *rng.pick(&[20, 50, 80]);
        let mut src = String::new();
        for (c, &arity) in arities.iter().enumerate() {
            let attrs: Vec<String> = (0..arity).map(|a| format!(" a{a}")).collect();
            src.push_str(&format!("(literalize C{c}{})\n", attrs.concat()));
        }
        for r in 0..rng.range(1, 4) {
            src.push_str(&rule(&mut rng, r, &arities, rare, bias));
        }
        let ops = trace(&mut rng, &arities, rare, bias);
        // A long trace over a cross product is slow behind a two-frame
        // pool, and paging needs no long trace.
        let paged = ops.len() <= 24 && rng.chance(30);
        Case {
            seed: Some(seed),
            src,
            ops,
            width: rng.range(2, 5),
            cycles: 8,
            paged,
            strategy: Strategy::Canonical,
        }
    }
}

/// One rule: positive CEs, negated CEs placed after a positive prefix,
/// and one or two actions.
fn rule(rng: &mut Rng, r: usize, arities: &[usize], rare: usize, bias: Bias) -> String {
    let npos = match bias {
        Bias::TwoWayJoins => 2,
        Bias::ThreeWayJoins => 3,
        _ => rng.range(1, 3),
    };
    let joined = matches!(bias, Bias::TwoWayJoins | Bias::ThreeWayJoins);
    // (variable name, positive CE that binds it)
    let mut vars: Vec<(String, usize)> = Vec::new();
    let mut positives: Vec<(usize, String)> = Vec::new();
    for p in 0..npos {
        let class = rng.below(arities.len());
        let mut ce = format!("(C{class}");
        for a in 0..arities[class] {
            let earlier: Vec<&String> = vars.iter().filter(|v| v.1 < p).map(|v| &v.0).collect();
            // Under a join bias the first CE binds its first attribute and
            // every later one joins it to an earlier CE's variable.
            let roll = match (joined && a == 0, p) {
                (true, 0) => 0,
                (true, _) => *rng.pick(&[4, 6]),
                _ => rng.below(10),
            };
            let term = match roll {
                0..=3 => {
                    let v = format!("<V{}>", vars.len());
                    vars.push((v.clone(), p));
                    v
                }
                4 | 5 if !earlier.is_empty() => rng.pick(&earlier).to_string(),
                6 if !earlier.is_empty() => {
                    format!("{{{} {}}}", rng.pick(&OPS), rng.pick(&earlier))
                }
                7 => atom(rng, rare).to_string(),
                // Also where there is nothing to join to yet.
                _ => format!("{{{} {}}}", rng.pick(&OPS), atom(rng, 100)),
            };
            ce.push_str(&format!(" ^a{a} {term}"));
        }
        ce.push(')');
        positives.push((class, ce));
    }
    // negated[p]: the negated CEs that follow positive CE p.
    let mut negated: Vec<Vec<String>> = vec![Vec::new(); npos];
    let mut last = None;
    let nneg = match bias {
        Bias::Negation => *rng.pick(&[1, 2]),
        _ => *rng.pick(&[0, 1, 1, 2, 2]),
    };
    for _ in 0..nneg {
        // Half the time the second one chains onto the first: same
        // place, same class, so that one WME can block at both.
        let (after, class) = match last {
            Some(chain) if rng.chance(50) => chain,
            _ => (rng.below(npos), rng.below(arities.len())),
        };
        last = Some((after, class));
        let bound: Vec<&String> = vars.iter().filter(|v| v.1 <= after).map(|v| &v.0).collect();
        let mut attrs: Vec<usize> = (0..arities[class]).collect();
        let mut ce = format!("-(C{class}");
        for _ in 0..rng.below(3).min(bound.len()) {
            let a = attrs.remove(rng.below(attrs.len()));
            let v = rng.pick(&bound);
            let term = if rng.chance(60) {
                v.to_string()
            } else {
                format!("{{{} {v}}}", rng.pick(&OPS))
            };
            ce.push_str(&format!(" ^a{a} {term}"));
        }
        if !attrs.is_empty() && rng.chance(30) {
            let a = attrs[rng.below(attrs.len())];
            ce.push_str(&format!(" ^a{a} {}", atom(rng, rare)));
        }
        ce.push(')');
        negated[after].push(ce);
    }
    // 1-based LHS numbers of the positive CEs, negated CEs counted.
    let (mut lhs, mut numbers) = (Vec::new(), Vec::new());
    for ((_, ce), negs) in positives.iter().zip(&negated) {
        numbers.push(lhs.len() + 1);
        lhs.extend([ce].into_iter().chain(negs));
    }
    let mut rhs = String::new();
    for _ in 0..rng.range(1, 2) {
        let p = rng.below(npos);
        let val = |rng: &mut Rng| match vars.is_empty() || rng.chance(50) {
            true => atom(rng, rare).to_string(),
            false => rng.pick(&vars).0.clone(),
        };
        let action = match rng.below(4) {
            0 => format!("(remove {})", numbers[p]),
            1 => {
                let class = rng.below(arities.len());
                let sets: Vec<String> = (0..arities[class])
                    .map(|a| format!(" ^a{a} {}", val(rng)))
                    .collect();
                format!("(make C{class}{})", sets.concat())
            }
            2 => {
                let a = rng.below(arities[positives[p].0]);
                format!("(modify {} ^a{a} {})", numbers[p], val(rng))
            }
            _ => format!("(write r{r} {})", val(rng)),
        };
        rhs.push_str(&format!(" {action}"));
    }
    format!(
        "(p R{r} {} -->{rhs})\n",
        lhs.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(" ")
    )
}

/// A trace of 4 to 12, 24 or 60 ops over the program's classes. Per
/// hundred ops, `removes` remove a live tuple (when there is one), 10 an
/// absent one, `bounces` bounce and the rest insert.
fn trace(rng: &mut Rng, arities: &[usize], rare: usize, bias: Bias) -> Vec<Op> {
    // Longer traces remove more, which bounds the live WM and so the
    // cost of a cross product over it.
    let (longest, removes) = *rng.pick(&[(12, 15), (24, 25), (60, 35)]);
    let len = rng.range(4, longest);
    let (removes, bounces) = match bias {
        Bias::DeleteHeavy => (45, 10),
        Bias::Bounces => (removes.min(20), 50),
        _ => (removes, 15),
    };
    let mut live: Vec<(usize, Tuple)> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..len {
        let class = rng.below(arities.len());
        let fresh = |rng: &mut Rng| {
            let values: Vec<Value> = (0..arities[class])
                .map(|_| value(atom(rng, rare)))
                .collect();
            Tuple::new(values)
        };
        let roll = rng.below(100);
        let op = if roll < removes && !live.is_empty() {
            let (class, t) = live.remove(rng.below(live.len()));
            Op::Remove(class, t)
        } else if roll < removes + 10 {
            Op::Remove(class, fresh(rng))
        } else if roll < removes + 10 + bounces {
            Op::Bounce(class, fresh(rng))
        } else {
            let t = match live.iter().find(|l| l.0 == class) {
                Some((_, t)) if rng.chance(15) => t.clone(),
                _ => fresh(rng),
            };
            live.push((class, t.clone()));
            Op::Insert(class, t)
        };
        ops.push(op);
    }
    ops
}
