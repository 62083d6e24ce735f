//! Crash consistency of `Store::put` and `Store::remove`.
//!
//! Every store file lands by temp file + rename, `put` writes `entry.json`
//! last and `remove` deletes it first. So an interrupted writer can leave
//! only a few kinds of on-disk state. Each property below builds one of
//! them by hand, from files copied out of a put that completed in a
//! separate store, and checks the oracle: `get` returns exactly the bytes
//! of a committed put, or a miss (plain, or a counted integrity failure).
//! It never returns any other bytes.

use ats_obs::Handle;
use ats_store::{CacheKey, Json, Store, StoredEntry};
use ats_testutil::prop::Gen;
use ats_testutil::{props, TempDir};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

const NAMES: [&str; 3] = ["report.json", "row.json", "trace.atsb"];

/// One put's inputs: a key's ingredients and its artifacts.
struct Put {
    ingredients: Json,
    files: BTreeMap<String, Vec<u8>>,
}

impl Put {
    /// A put for a random key with a random non-empty set of artifacts.
    fn draw(g: &mut Gen) -> Put {
        let n = g.below(1 << 32);
        let mut files = BTreeMap::new();
        while files.is_empty() {
            for name in NAMES {
                if g.bool() {
                    files.insert(name.to_owned(), g.vec(0..48, |g| g.below(256) as u8));
                }
            }
        }
        Put {
            ingredients: Json::obj().with("schema", "crash-test").with("n", n),
            files,
        }
    }

    /// The same key with new bytes in every artifact, some artifacts
    /// possibly dropped or added: what a re-put after a change publishes.
    fn redraw(&self, g: &mut Gen) -> Put {
        let mut next = Put::draw(g);
        next.ingredients = self.ingredients.clone();
        for (name, bytes) in &mut next.files {
            let Some(old) = self.files.get(name) else {
                continue;
            };
            // Some changed artifacts keep their size, so that only the
            // checksum can tell them from the old ones.
            if g.bool() && !old.is_empty() {
                bytes.clone_from(old);
                let at = g.usize(0..old.len());
                bytes[at] ^= 1 + g.below(255) as u8;
            } else if bytes == old {
                bytes.push(0);
            }
        }
        next
    }

    fn key(&self) -> CacheKey {
        CacheKey::of_value(&self.ingredients)
    }

    fn commit(&self, store: &Store) {
        let files: Vec<(&str, &[u8])> = self
            .files
            .iter()
            .map(|(name, bytes)| (name.as_str(), bytes.as_slice()))
            .collect();
        store.put(&self.key(), &self.ingredients, &files).unwrap();
    }
}

/// A store under test, with its counters.
struct Fixture {
    _dir: TempDir,
    store: Store,
    obs: Handle,
}

impl Fixture {
    fn new() -> Fixture {
        let dir = TempDir::new("ats-store-crash");
        let obs = Handle::new();
        let store = Store::open(dir.path()).unwrap().with_obs(Some(obs.clone()));
        Fixture {
            _dir: dir,
            store,
            obs,
        }
    }

    fn entry_dir(&self, key: &CacheKey) -> PathBuf {
        self.store
            .root()
            .join("objects")
            .join(key.shard())
            .join(key.hex())
    }

    /// `get` under the oracle: the result is a miss or exactly one of
    /// `committed`. Returns what happened.
    fn get(&self, key: &CacheKey, committed: &[&Put]) -> Outcome {
        let failures = self.obs.store.integrity_failures.get();
        let misses = self.obs.store.misses.get();
        let got = self.store.get(key).unwrap();
        assert_eq!(
            self.obs.store.misses.get() - misses,
            u64::from(got.is_none())
        );
        match got {
            Some(entry) => {
                let hit = committed.iter().position(|put| same(&entry, put));
                Outcome::Hit(hit.expect("get returned bytes no committed put wrote"))
            }
            None if self.obs.store.integrity_failures.get() > failures => Outcome::Damaged,
            None => Outcome::Miss,
        }
    }
}

fn same(entry: &StoredEntry, put: &Put) -> bool {
    entry.ingredients == put.ingredients && entry.files == put.files
}

#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// A hit with the bytes of the committed put at this index.
    Hit(usize),
    /// No entry: a plain miss.
    Miss,
    /// A miss counted as an integrity failure.
    Damaged,
}

/// `put` completed in a store of its own: the source of copied files.
fn completed(put: &Put) -> Fixture {
    let donor = Fixture::new();
    put.commit(&donor.store);
    donor
}

/// Copy a random non-empty subset of `put`'s artifacts (never
/// `entry.json`) from `donor` into `fx`'s entry directory, as renames of
/// an unfinished put would have left them. Returns the names copied.
fn copy_some_artifacts(g: &mut Gen, donor: &Fixture, fx: &Fixture, put: &Put) -> Vec<String> {
    let names: Vec<&String> = put.files.keys().collect();
    let mut copied: Vec<String> = names
        .iter()
        .filter(|_| g.bool())
        .map(|n| n.to_string())
        .collect();
    if copied.is_empty() {
        copied.push(g.pick(&names).clone());
    }
    let from = donor.entry_dir(&put.key());
    let to = fx.entry_dir(&put.key());
    fs::create_dir_all(&to).unwrap();
    for name in &copied {
        fs::copy(from.join(name), to.join(name)).unwrap();
    }
    copied
}

/// A temp sibling as `atomic::write_atomic` names it, holding a torn
/// prefix of `bytes`.
fn orphan_temp(g: &mut Gen, dir: &std::path::Path, name: &str, bytes: &[u8]) {
    let tmp = dir.join(format!(
        ".{name}.{}.{}.tmp",
        g.below(1 << 20),
        g.below(1000)
    ));
    fs::create_dir_all(dir).unwrap();
    fs::write(tmp, &bytes[..g.usize(0..bytes.len() + 1)]).unwrap();
}

props! { 32;
    /// A put interrupted before its commit point: some artifacts are in
    /// place, `entry.json` is not. Nothing is committed, so `get` is a
    /// plain miss and statistics ignore the directory. Finishing the put
    /// commits it.
    fn artifacts_without_a_manifest_are_a_plain_miss(g) {
        let put = Put::draw(g);
        let donor = completed(&put);
        let fx = Fixture::new();
        copy_some_artifacts(g, &donor, &fx, &put);

        assert!(!fx.store.contains(&put.key()));
        assert_eq!(fx.get(&put.key(), &[]), Outcome::Miss);
        assert_eq!(fx.store.stats().entries, 0);

        put.commit(&fx.store);
        assert_eq!(fx.get(&put.key(), &[&put]), Outcome::Hit(0));
    }

    /// A writer killed between temp write and rename leaves
    /// `.<name>.<pid>.<seq>.tmp` siblings with torn bytes, beside a
    /// committed entry or in a directory nothing was committed to. `get`
    /// never reads them.
    fn orphaned_temp_files_are_never_read(g) {
        let put = Put::draw(g);
        let fx = Fixture::new();
        let committed = g.bool();
        if committed {
            put.commit(&fx.store);
        }
        let dir = fx.entry_dir(&put.key());
        for (name, bytes) in &put.files {
            orphan_temp(g, &dir, name, bytes);
        }
        orphan_temp(g, &dir, "entry.json", b"{\"schema\": \"ats-store-entry/1\"}");

        let expected = if committed { Outcome::Hit(0) } else { Outcome::Miss };
        assert_eq!(fx.get(&put.key(), &[&put]), expected);
        assert_eq!(fx.store.stats().entries, usize::from(committed));
    }

    /// A re-put of a stored key interrupted before its commit point: some
    /// of the new artifacts replace old ones under the old `entry.json`.
    /// The old checksums catch every replaced artifact, so `get` is a
    /// counted integrity failure, unless only artifacts the old entry does
    /// not name were written. Finishing the re-put commits the new bytes.
    fn a_torn_re_put_is_damage_not_data(g) {
        let old = Put::draw(g);
        let new = old.redraw(g);
        let donor = completed(&new);
        let fx = Fixture::new();
        old.commit(&fx.store);
        let copied = copy_some_artifacts(g, &donor, &fx, &new);

        let replaced_named = copied.iter().any(|name| old.files.contains_key(name));
        let expected = if replaced_named { Outcome::Damaged } else { Outcome::Hit(0) };
        assert_eq!(fx.get(&old.key(), &[&old]), expected);

        new.commit(&fx.store);
        assert_eq!(fx.get(&new.key(), &[&old, &new]), Outcome::Hit(1));
    }

    /// A manifest naming an artifact that is gone (deleted by hand, or by
    /// a removal that did not take `entry.json` first) is a counted
    /// integrity failure.
    fn a_manifest_with_a_missing_artifact_is_damage(g) {
        let put = Put::draw(g);
        let fx = Fixture::new();
        put.commit(&fx.store);
        let dir = fx.entry_dir(&put.key());
        let names: Vec<&String> = put.files.keys().collect();
        fs::remove_file(dir.join(g.pick(&names))).unwrap();

        assert!(fx.store.contains(&put.key()));
        assert_eq!(fx.get(&put.key(), &[&put]), Outcome::Damaged);
    }

    /// A removal interrupted after its first step: `entry.json` is gone,
    /// some artifacts remain. `get` is a plain miss, and finishing the
    /// removal clears the directory.
    fn an_interrupted_remove_is_a_plain_miss(g) {
        let put = Put::draw(g);
        let fx = Fixture::new();
        put.commit(&fx.store);
        let dir = fx.entry_dir(&put.key());
        fs::remove_file(dir.join("entry.json")).unwrap();
        for name in put.files.keys() {
            if g.bool() {
                fs::remove_file(dir.join(name)).unwrap();
            }
        }

        assert_eq!(fx.get(&put.key(), &[&put]), Outcome::Miss);
        assert_eq!(fx.store.stats().entries, 0);
        assert!(fx.store.remove(&put.key()).unwrap());
        assert!(!dir.exists());
        assert_eq!(fx.get(&put.key(), &[&put]), Outcome::Miss);
    }
}
