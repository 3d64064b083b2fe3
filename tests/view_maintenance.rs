//! "Our method can be used for [maintaining materialized views and
//! triggers] as well" (§6): the view workload must converge to the exact
//! view contents on every engine, through the one differential driver.

mod common;

use common::differential::check;
use common::grammar::Case;
use relstore::Tuple;
use workload::view;

/// The `View` rows every engine agreed on after `base_load` and `ops`.
fn view_after(ops: &[&str]) -> (usize, Vec<Tuple>) {
    let (out, mut wm) = check(&Case::loaded(view::VIEW_RULES, &view::base_load(), ops));
    assert!(!out.limited);
    (out.fired, wm.swap_remove(2))
}

#[test]
fn view_materializes_on_every_engine() {
    assert_eq!(view_after(&[]).1, view::expected_view());
}

/// A qualifying employee enters the view; once the view row is there,
/// removing its base tuple unblocks `DropFromView`'s negated CE and the
/// row leaves.
#[test]
fn view_tracks_inserts_and_deletes() {
    let mut expected = view::expected_view();
    expected.push(relstore::tuple!["Zoe", 7000, 3]);
    expected.sort();
    assert_eq!(view_after(&["+0 Zoe 7000 1"]).1, expected);
    let ops = ["+0 Zoe 7000 1", "+2 Zoe 7000 3", "-0 Zoe 7000 1"];
    assert_eq!(view_after(&ops).1, view::expected_view());
}

/// Low salary and wrong department: readily ignorable updates (the RIU
/// idea of Buneman & Clemons, §2.3) fire nothing beyond the base view.
#[test]
fn non_qualifying_updates_are_ignored() {
    let expected = view::expected_view();
    let fired = expected.len();
    assert_eq!(
        view_after(&["+0 Tmp 1000 1", "+0 Other 9999 2"]),
        (fired, expected)
    );
}
