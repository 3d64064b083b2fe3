//! Negated condition elements (§4.2.2) across engines and executors,
//! through the one differential driver.

mod common;

use common::differential::check;
use common::grammar::Case;
use prodsys::Strategy;
use relstore::tuple;

/// Fires while the dept is absent, is blocked when it appears, stays
/// blocked while one of two blockers is left, and revives with the last.
#[test]
fn negation_lifecycle_all_engines() {
    let src = "(literalize Emp name dno)\n(literalize Dept dno)\n\
        (p Orphan (Emp ^name <N> ^dno <D>) -(Dept ^dno <D>) --> (remove 1))";
    check(&Case::named(
        src,
        &["+0 Ann 7", "+1 7", "+1 7", "-1 7", "-1 7"],
    ));
}

#[test]
fn multiple_negated_ces() {
    let src = "(literalize Emp name dno proj)\n(literalize Dept dno)\n(literalize Proj proj)\n\
        (p Lost (Emp ^name <N> ^dno <D> ^proj <P>) -(Dept ^dno <D>) -(Proj ^proj <P>) --> (remove 1))";
    check(&Case::named(
        src,
        &["+0 Ann 7 x", "+1 7", "+2 x", "-1 7", "-2 x"],
    ));
}

/// A negation-driven fixpoint program: set difference Emp \ Dept by dno.
#[test]
fn negation_fixpoint_program() {
    let src = r#"
        (literalize Emp name dno)
        (literalize Dept dno)
        (literalize Orphaned name)
        (p FindOrphan (Emp ^name <N> ^dno <D>) -(Dept ^dno <D>) -(Orphaned ^name <N>)
            --> (make Orphaned ^name <N>))
    "#;
    let mut case = Case::named(src, &["+0 Ann 1", "+0 Bob 2", "+0 Cid 3", "+1 2"]);
    case.strategy = Strategy::Fifo;
    let (out, wm) = check(&case);
    assert!(!out.limited);
    assert_eq!(wm[2], vec![tuple!["Ann"], tuple!["Cid"]]);
}
