//! Property tests over seeded [`TestRng`] inputs: pretty-printing a
//! parsed program re-parses to the same text (printing is a retraction
//! of parsing), and the parser is total on arbitrary input.

use coral_lang::pretty::{program_to_string, term_to_string};
use coral_lang::{parse_program, parse_query, parse_term};
use coral_term::testutil::TestRng;

const CASES: u64 = 256;

fn pick<'a>(rng: &mut TestRng, xs: &[&'a str]) -> &'a str {
    xs[rng.gen_range(0, xs.len())]
}

fn several(
    rng: &mut TestRng,
    lo: usize,
    hi: usize,
    mut f: impl FnMut(&mut TestRng) -> String,
) -> String {
    let items: Vec<String> = (0..rng.gen_range(lo, hi)).map(|_| f(rng)).collect();
    items.join(", ")
}

/// Random term source text built from a small grammar.
fn term_src(rng: &mut TestRng, depth: u32) -> String {
    if depth > 0 && rng.gen_bool(0.35) {
        return match rng.gen_range(0, 3) {
            0 => {
                let name = pick(rng, &["f", "g", "edge"]);
                format!("{name}({})", several(rng, 1, 3, |r| term_src(r, depth - 1)))
            }
            1 => format!("[{}]", several(rng, 0, 3, |r| term_src(r, depth - 1))),
            _ => format!(
                "({} + {})",
                term_src(rng, depth - 1),
                term_src(rng, depth - 1)
            ),
        };
    }
    match rng.gen_range(0, 6) {
        0 => (rng.gen_range(0, 1998) as i64 - 999).to_string(),
        1 => format!("X{}", rng.gen_range(0, 3)),
        2 => pick(rng, &["a", "b", "foo"]).to_string(),
        3 => "\"a string\"".to_string(),
        4 => "[]".to_string(),
        _ => format!("{}.5", rng.gen_range(1, 99)),
    }
}

/// Random clause text.
fn clause_src(rng: &mut TestRng) -> String {
    let head = format!(
        "{}({})",
        pick(rng, &["h", "p"]),
        several(rng, 1, 3, |r| term_src(r, 3))
    );
    let body = several(rng, 0, 3, |r| match r.gen_range(0, 3) {
        0 => format!(
            "{}({})",
            pick(r, &["p", "q", "r"]),
            several(r, 1, 3, |r| term_src(r, 3))
        ),
        1 => format!(
            "{} {} {}",
            term_src(r, 3),
            pick(r, &["<", ">=", "="]),
            term_src(r, 3)
        ),
        _ => format!("not {}({})", pick(r, &["p", "q"]), term_src(r, 3)),
    });
    if body.is_empty() {
        format!("{head}.")
    } else {
        format!("{head} :- {body}.")
    }
}

fn program_src(rng: &mut TestRng) -> String {
    let mut src = String::new();
    for _ in 0..rng.gen_range(0, 3) {
        src.push_str(&format!("base({}).\n", term_src(rng, 3)));
    }
    src.push_str("module m.\nexport h(ff).\n");
    for _ in 0..rng.gen_range(1, 5) {
        src.push_str(&clause_src(rng));
        src.push('\n');
    }
    src.push_str("end_module.\n");
    src
}

#[test]
fn program_print_parse_fixpoint() {
    let mut rng = TestRng::new(1);
    let mut parsed = 0;
    for _ in 0..CASES {
        let src = program_src(&mut rng);
        // Generated text can be ill-formed (e.g. a comparison as a rule
        // head); that is a property of the generator, not a bug.
        let Ok(p1) = parse_program(&src) else {
            continue;
        };
        parsed += 1;
        let printed = program_to_string(&p1);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reprint failed to parse: {e}\n{printed}"));
        assert_eq!(printed, program_to_string(&p2), "not a fixpoint for {src}");
    }
    assert!(parsed > CASES / 4, "generator mostly ill-formed: {parsed}");
}

#[test]
fn term_print_parse_roundtrip() {
    let mut rng = TestRng::new(2);
    for _ in 0..CASES {
        let src = term_src(&mut rng, 3);
        let Ok((t1, names)) = parse_term(&src) else {
            continue;
        };
        let name_of = |v: coral_term::VarId| {
            names
                .get(v.0 as usize)
                .cloned()
                .unwrap_or_else(|| format!("V{}", v.0))
        };
        let printed = term_to_string(&t1, &name_of);
        let (t2, _) = parse_term(&printed).unwrap_or_else(|e| panic!("{e}: {printed}"));
        assert!(coral_term::variant(&t1, &t2), "{t1} vs {t2}");
    }
}

/// The parser never panics, whatever characters arrive.
#[test]
fn parser_total_on_arbitrary_input() {
    const CHARS: &[char] = &[
        'a', 'Z', '_', '0', '9', ' ', '\n', '\t', '.', ',', ':', '-', '?', '(', ')', '[', ']', '|',
        '"', '\'', '\\', '%', '/', '*', '+', '=', '<', '>', '@', '!', 'é', 'δ', '∀', '\0',
    ];
    let mut rng = TestRng::new(3);
    for _ in 0..CASES {
        let src: String = (0..rng.gen_range(0, 60))
            .map(|_| CHARS[rng.gen_range(0, CHARS.len())])
            .collect();
        let _ = parse_program(&src);
        let _ = parse_term(&src);
        let _ = parse_query(&src);
    }
}

/// ... including inputs built from the language's own token shards.
#[test]
fn parser_total_on_token_soup() {
    const TOKENS: &[&str] = &[
        "module",
        "end_module.",
        "export",
        "p(bf).",
        ":-",
        "?-",
        ".",
        ",",
        "(",
        ")",
        "[",
        "]",
        "|",
        "not",
        "@psn.",
        "X",
        "foo",
        "42",
        "1.5",
        "\"s\"",
        "=",
        "<",
        "+",
        "'q a'",
    ];
    let mut rng = TestRng::new(4);
    for _ in 0..CASES {
        let parts: Vec<&str> = (0..rng.gen_range(0, 40))
            .map(|_| pick(&mut rng, TOKENS))
            .collect();
        let _ = parse_program(&parts.join(" "));
    }
}
