//! Rule-base queries (§4.2.3): interrogate the *rules*, not the data.
//!
//! "Give me all the rules that apply on employees older than 55" — the
//! paper's own example — answered from the COND-relation index (an R-tree
//! over the rule base's condition elements, the one the matching engines
//! use), with no working memory loaded at all. The example asserts each
//! answer it prints.
//!
//! ```sh
//! cargo run --example rulebase_queries
//! ```

use ops5::ClassId;
use predindex::IndexKind;
use prodsys::CondIndex;
use relstore::{tuple, CompOp, Restriction, Selection};

const RULES: &str = r#"
    (literalize Emp name age salary dept)
    (literalize Dept dno floor)

    (p Retirement-Notice   (Emp ^age {>= 65})                       --> (remove 1))
    (p Senior-Bonus        (Emp ^age {>= 50} ^salary {< 8000})      --> (remove 1))
    (p Early-Career-Review (Emp ^age {< 30})                        --> (remove 1))
    (p Mikes-Rule          (Emp ^name Mike ^age <A>)                --> (remove 1))
    (p Exec-Pay            (Emp ^salary {>= 20000})                 --> (remove 1))
    (p First-Floor-Audit   (Emp ^dept <D>) (Dept ^dno <D> ^floor 1) --> (remove 1))
"#;

fn main() {
    let rules = ops5::compile(RULES).unwrap();
    let idx = CondIndex::new(rules, IndexKind::RTree);
    let emp = ClassId(0);
    let show = |title: &str, names: Vec<String>, expect: &[&str]| {
        println!("{title}");
        for name in &names {
            println!("  - {name}");
        }
        assert_eq!(names, expect, "{title}");
    };

    // The paper's query — note: no data has been inserted anywhere.
    let older_than_55 = Restriction::new(vec![Selection::new(1, CompOp::Gt, 55)]);
    show(
        "rules that apply on employees older than 55:",
        idx.rule_names(&idx.rules_overlapping(emp, &older_than_55).unwrap()),
        &[
            "Retirement-Notice",
            "Senior-Bonus",
            "Mikes-Rule",
            "Exec-Pay",
            "First-Floor-Audit",
        ],
    );

    // A compound region: mid-career and well paid.
    let region = Restriction::new(vec![
        Selection::new(1, CompOp::Ge, 40),
        Selection::new(1, CompOp::Lt, 50),
        Selection::new(2, CompOp::Ge, 20000),
    ]);
    show(
        "\nrules overlapping age ∈ [40,50) ∧ salary ≥ 20000:",
        idx.rule_names(&idx.rules_overlapping(emp, &region).unwrap()),
        &["Mikes-Rule", "Exec-Pay", "First-Floor-Audit"],
    );

    // Point form: which rules could this concrete hire trigger?
    let hire = tuple!["Mike", 62, 21000, 7];
    show(
        &format!("\nrules a new hire {hire} could trigger:"),
        idx.rule_names(&idx.rules_for_tuple(emp, &hire)),
        &["Mikes-Rule", "Exec-Pay", "First-Floor-Audit"],
    );
}
