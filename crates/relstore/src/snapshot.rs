//! Snapshot persistence.
//!
//! OPS5 working memory "resides entirely in virtual memory, and does not
//! persist after the execution of a program" (§3.1); a DBMS-resident WM is
//! persistent. This module serializes the full catalog and every live
//! tuple to a compact binary image (length-prefixed records, little
//! endian) and restores it, so a production system can stop and resume.
//! The value encoding is the shared [`crate::codec`], so oversized
//! strings are rejected at encode time rather than silently truncated.
//!
//! An in-memory database ([`Database::new`]) has no log: [`save`] and
//! [`load`] are its whole persistence. A paged database writes the same
//! image as its checkpoint ([`Database::checkpoint`]).
//!
//! The image is a **consistent cut** of committed work: [`save`] waits
//! until no writing transaction is open, latches the catalog and every
//! relation for the duration of serialization, and the header records
//! the WAL's last LSN at that cut — the *watermark* (0 without a log).
//! [`Database::open_paged`] skips log records at or below the watermark,
//! so a checkpoint paired with an untruncated log replays each change
//! exactly once. Derived relations
//! ([`Database::create_derived_relation`]) are left out.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{get_str, get_value, put_str, put_value};
use crate::database::Database;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;

const MAGIC: u32 = 0x5e11_1988; // "Sellis 1988"
const VERSION: u16 = 2;

/// Serialize the database (schemas + live tuples + index definitions).
pub fn save(db: &Database) -> Result<Bytes> {
    save_with_watermark(db).map(|(bytes, _)| bytes)
}

/// Like [`save`], also returning the WAL watermark embedded in the
/// image: every log record with `lsn <= watermark` is reflected in the
/// snapshot and none beyond it are. The cut is taken with no writing
/// transaction open and under a write latch on every relation plus the
/// catalog lock, so a concurrent writer can neither straddle the image
/// nor commit a record at or below the watermark after it is chosen.
pub(crate) fn save_with_watermark(db: &Database) -> Result<(Bytes, u64)> {
    db.with_quiesced(|rels, watermark| -> Result<(Bytes, u64)> {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u64_le(watermark);
        let rels: Vec<_> = rels.iter().filter(|r| !r.derived).collect();
        buf.put_u32_le(rels.len() as u32);
        for rel in rels {
            let schema = rel.schema();
            put_str(&mut buf, schema.name())?;
            buf.put_u32_le(schema.arity() as u32);
            for a in schema.attrs() {
                put_str(&mut buf, &a.name)?;
            }
            // Index definitions.
            let mut hash_attrs = Vec::new();
            let mut ord_attrs = Vec::new();
            for attr in 0..schema.arity() {
                if rel.has_hash_index(attr) {
                    hash_attrs.push(attr as u32);
                }
                if rel.has_ord_index(attr) {
                    ord_attrs.push(attr as u32);
                }
            }
            buf.put_u32_le(hash_attrs.len() as u32);
            for a in hash_attrs {
                buf.put_u32_le(a);
            }
            buf.put_u32_le(ord_attrs.len() as u32);
            for a in ord_attrs {
                buf.put_u32_le(a);
            }
            // Tuples.
            let rows = rel.scan()?;
            buf.put_u32_le(rows.len() as u32);
            for (_, t) in rows {
                for v in t.values() {
                    put_value(&mut buf, v)?;
                }
            }
        }
        Ok((buf.freeze(), watermark))
    })
}

/// Restore a snapshot saved by [`save`] into `db`, which must be empty.
/// The database keeps its own storage mode — restoring into a paged
/// database rehomes every tuple onto heap pages. Returns the image's
/// WAL watermark: log records with `lsn <= watermark` are already in
/// the restored state and must not be replayed on top of it.
pub(crate) fn load_into(mut bytes: Bytes, db: &Database) -> Result<u64> {
    if db.relation_count() != 0 {
        return Err(Error::Corrupt("snapshot restore into non-empty database"));
    }
    if bytes.remaining() < 14 {
        return Err(Error::Corrupt("header"));
    }
    if bytes.get_u32_le() != MAGIC {
        return Err(Error::Corrupt("bad magic"));
    }
    if bytes.get_u16_le() != VERSION {
        return Err(Error::Corrupt("unsupported version"));
    }
    let watermark = bytes.get_u64_le();
    if bytes.remaining() < 4 {
        return Err(Error::Corrupt("relation count"));
    }
    let nrels = bytes.get_u32_le();
    for _ in 0..nrels {
        let name = get_str(&mut bytes)?;
        if bytes.remaining() < 4 {
            return Err(Error::Corrupt("arity"));
        }
        let arity = bytes.get_u32_le() as usize;
        let mut attrs = Vec::with_capacity(arity);
        for _ in 0..arity {
            attrs.push(get_str(&mut bytes)?);
        }
        let rid = db.create_relation(Schema::new(&name, attrs))?;
        let read_attr_list = |bytes: &mut Bytes| -> Result<Vec<usize>> {
            if bytes.remaining() < 4 {
                return Err(Error::Corrupt("index list"));
            }
            let n = bytes.get_u32_le();
            let mut v = Vec::with_capacity(n as usize);
            for _ in 0..n {
                if bytes.remaining() < 4 {
                    return Err(Error::Corrupt("index attr"));
                }
                v.push(bytes.get_u32_le() as usize);
            }
            Ok(v)
        };
        let hash_attrs = read_attr_list(&mut bytes)?;
        let ord_attrs = read_attr_list(&mut bytes)?;
        if bytes.remaining() < 4 {
            return Err(Error::Corrupt("tuple count"));
        }
        let ntuples = bytes.get_u32_le();
        for _ in 0..ntuples {
            let mut values = Vec::with_capacity(arity);
            for _ in 0..arity {
                values.push(get_value(&mut bytes)?);
            }
            db.insert(rid, Tuple::new(values))?;
        }
        for a in hash_attrs {
            db.create_hash_index(rid, a)?;
        }
        for a in ord_attrs {
            db.create_ord_index(rid, a)?;
        }
    }
    Ok(watermark)
}

/// Restore a database saved by [`save`] (fresh in-memory database).
pub fn load(bytes: Bytes) -> Result<Database> {
    let db = Database::new();
    load_into(bytes, &db)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{Restriction, Selection};
    use crate::tuple;
    use crate::value::Value;

    #[test]
    fn roundtrip_preserves_data_and_indexes() {
        let db = Database::new();
        let emp = db
            .create_relation(Schema::new("Emp", ["name", "age", "salary"]))
            .unwrap();
        let dept = db
            .create_relation(Schema::new("Dept", ["dno", "dname"]))
            .unwrap();
        db.insert(emp, tuple!["Mike", 32, 6000.5]).unwrap();
        db.insert(emp, tuple!["Sam", Value::Null, 5000]).unwrap();
        db.insert(dept, tuple![1, "Toy"]).unwrap();
        db.create_hash_index(emp, 0).unwrap();
        db.create_ord_index(emp, 1).unwrap();

        let image = save(&db).unwrap();
        let restored = load(image).unwrap();
        assert_eq!(restored.relation_count(), 2);
        let emp2 = restored.rel_id("Emp").unwrap();
        assert_eq!(restored.relation_len(emp2), 2);
        assert!(restored.read(emp2, |r| r.has_hash_index(0)).unwrap());
        assert!(restored.read(emp2, |r| r.has_ord_index(1)).unwrap());
        let mike = restored
            .select(emp2, &Restriction::new(vec![Selection::eq(0, "Mike")]))
            .unwrap();
        assert_eq!(mike.len(), 1);
        assert_eq!(mike[0].1[2], Value::Float(6000.5));
        let sam = restored
            .select(emp2, &Restriction::new(vec![Selection::eq(0, "Sam")]))
            .unwrap();
        assert!(sam[0].1[1].is_null());
    }

    #[test]
    fn watermark_matches_wal_cut_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("relstore-snap-{}", std::process::id()));
        let db = Database::new_paged(&dir, 4).unwrap();
        let rid = db.create_relation(Schema::new("R", ["a"])).unwrap();
        db.insert(rid, tuple![1]).unwrap();
        let (image, watermark) = save_with_watermark(&db).unwrap();
        assert_eq!(watermark, 2, "create + insert are in the image");
        assert_eq!(watermark, db.wal.as_ref().unwrap().last_lsn());
        let restored = Database::new();
        assert_eq!(load_into(image, &restored).unwrap(), watermark);
        assert_eq!(restored.relation_count(), 1);
        std::fs::remove_dir_all(&dir).ok();
        // A database without a WAL snapshots at watermark 0.
        let plain = Database::new();
        assert_eq!(save_with_watermark(&plain).unwrap().1, 0);
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let restored = load(save(&db).unwrap()).unwrap();
        assert_eq!(restored.relation_count(), 0);
    }

    #[test]
    fn corrupt_images_rejected() {
        assert!(load(Bytes::from_static(b"")).is_err());
        assert!(load(Bytes::from_static(b"\x00\x00\x00\x00\x00\x00")).is_err());
        let db = Database::new();
        db.create_relation(Schema::new("R", ["a"])).unwrap();
        let image = save(&db).unwrap();
        let truncated = image.slice(0..image.len() - 1);
        assert!(load(truncated).is_err());
    }

    #[test]
    fn load_into_refuses_non_empty_target() {
        let db = Database::new();
        db.create_relation(Schema::new("R", ["a"])).unwrap();
        let image = save(&db).unwrap();
        assert!(matches!(load_into(image, &db), Err(Error::Corrupt(_))));
    }
}
