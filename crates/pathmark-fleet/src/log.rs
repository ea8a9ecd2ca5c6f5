//! The one durable-write primitive: a single file of lines.
//!
//! Batch reports ([`crate::manifest::ReportWriter`]) and the serve
//! daemon's journal are both built on [`LineLog`], which has three
//! operations:
//!
//! * [`LineLog::append`] writes one whole line with one `write_all`;
//! * [`LineLog::replace`] writes the new contents to `PATH.tmp`, fsyncs
//!   it, renames it over the log and reopens it;
//! * [`LineLog::resume`] keeps the lines up to the first one that is
//!   unterminated or does not parse, cuts the rest off in place with
//!   `set_len`, and removes a stale `PATH.tmp`.
//!
//! No visible file is ever rewritten in place: an append only extends
//! the file, a replace swaps it whole, and a resume only shortens it to
//! a prefix it has already read.
//!
//! **Durability contract.** Every whole appended line and every
//! completed replace survives a kill -9 at any byte. A killed append
//! leaves at most one unterminated line, which the next resume cuts; a
//! killed replace leaves the old log intact beside a stale tmp file.
//! Power loss is not covered: appends are not fsynced, and no directory
//! fsync follows a rename, so the newest lines or the newest rename may
//! be lost when the machine itself goes down.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// An append-only file of lines with atomic whole-file replacement and
/// torn-tail recovery. See the [module docs](self) for the contract.
#[derive(Debug)]
pub struct LineLog {
    path: PathBuf,
    file: File,
    /// Bytes in the file: every line kept, appended or replaced.
    len: u64,
}

impl LineLog {
    /// Makes `path` hold exactly `lines` — through the same tmp, fsync
    /// and rename as [`LineLog::replace`], so whatever was there before
    /// is swapped out whole — and opens it for appending.
    ///
    /// # Errors
    ///
    /// Whatever writing, syncing, renaming or reopening reports.
    pub fn create<S: AsRef<str>>(
        path: impl Into<PathBuf>,
        lines: impl IntoIterator<Item = S>,
    ) -> std::io::Result<LineLog> {
        let path = path.into();
        let mut text = String::new();
        for line in lines {
            text.push_str(line.as_ref());
            text.push('\n');
        }
        let tmp = tmp_path(&path);
        {
            let mut file = step(|| File::create(&tmp))?;
            write_all(&mut file, text.as_bytes())?;
            sync(&file)?;
        }
        step(|| std::fs::rename(&tmp, &path))?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(LineLog {
            path,
            file,
            len: text.len() as u64,
        })
    }

    /// Reopens the log at `path` after a crash (creating it empty if it
    /// does not exist). Returns the log and `parse` of every line kept:
    /// lines are kept up to the first one that is unterminated, not
    /// UTF-8, or that `parse` rejects; that line and everything after
    /// it is cut off with `set_len`. A `PATH.tmp` left by a replace that
    /// never renamed is removed.
    ///
    /// # Errors
    ///
    /// Whatever opening, reading, cutting or removing reports.
    pub fn resume<T>(
        path: impl Into<PathBuf>,
        mut parse: impl FnMut(&str) -> Option<T>,
    ) -> std::io::Result<(LineLog, Vec<T>)> {
        let path = path.into();
        let tmp = tmp_path(&path);
        if tmp.exists() {
            step(|| std::fs::remove_file(&tmp))?;
        }
        if !path.exists() {
            step(|| File::create(&path))?;
        }
        let mut file = OpenOptions::new().read(true).append(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut kept = Vec::new();
        let mut len = 0;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let Some(item) = line
                .strip_suffix(b"\n")
                .and_then(|body| std::str::from_utf8(body).ok())
                .and_then(&mut parse)
            else {
                break;
            };
            kept.push(item);
            len += line.len();
        }
        if len < bytes.len() {
            step(|| file.set_len(len as u64))?;
        }
        Ok((
            LineLog {
                path,
                file,
                len: len as u64,
            },
            kept,
        ))
    }

    /// Appends one line (which must not contain a newline) with one
    /// `write_all`, unbuffered: a crash tears at most this line. If the
    /// write fails, the partial line is cut back off so the next append
    /// starts on a line boundary.
    ///
    /// # Errors
    ///
    /// Whatever the write reports.
    pub fn append(&mut self, line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "one line at a time");
        let bytes = format!("{line}\n");
        if let Err(e) = write_all(&mut self.file, bytes.as_bytes()) {
            let _ = step(|| self.file.set_len(self.len));
            return Err(e);
        }
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Replaces the whole log with `lines`: tmp file, fsync, rename over
    /// the log, reopen. A crash at any point leaves either the old log
    /// or the new one, never a mix.
    ///
    /// # Errors
    ///
    /// Whatever writing, syncing, renaming or reopening reports.
    pub fn replace<S: AsRef<str>>(
        &mut self,
        lines: impl IntoIterator<Item = S>,
    ) -> std::io::Result<()> {
        *self = LineLog::create(&self.path, lines)?;
        Ok(())
    }

    /// Moves the log to `to` with one rename, replacing any file there
    /// atomically.
    ///
    /// # Errors
    ///
    /// Whatever the rename reports.
    pub fn rename(self, to: &Path) -> std::io::Result<()> {
        step(|| std::fs::rename(&self.path, to))
    }

    /// Deletes the log.
    ///
    /// # Errors
    ///
    /// Whatever the removal reports.
    pub fn remove(self) -> std::io::Result<()> {
        step(|| std::fs::remove_file(&self.path))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes in the log.
    pub fn size(&self) -> u64 {
        self.len
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Every byte a log writes goes through here, so a crash test can cut
/// the write short.
fn write_all(file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
    #[cfg(any(test, feature = "crash-budget"))]
    {
        let allowed = crash::spend(Some(bytes.len()));
        if allowed < bytes.len() {
            file.write_all(&bytes[..allowed])?;
            return Err(crash::killed());
        }
    }
    file.write_all(bytes)
}

/// Flushes a replacement to disk before it is renamed into place. A
/// crash sweep skips it: it models kill -9, which loses nothing the
/// kernel already holds, and a sweep replaces files thousands of times.
fn sync(file: &File) -> std::io::Result<()> {
    #[cfg(any(test, feature = "crash-budget"))]
    if crash::sweeping() {
        return Ok(());
    }
    file.sync_all()
}

/// Every other change a log makes to the file system — creating,
/// cutting, renaming or removing a file — goes through here, so a
/// crash test can stop just before it.
fn step<T>(op: impl FnOnce() -> std::io::Result<T>) -> std::io::Result<T> {
    #[cfg(any(test, feature = "crash-budget"))]
    if crash::spend(None) == 0 {
        return Err(crash::killed());
    }
    op()
}

/// A simulated kill -9 for crash tests, compiled only into test builds
/// (this crate's own, or a dependent's through the `crash-budget`
/// feature, which only dev-dependencies turn on).
///
/// [`sweep`](crash::sweep) gives the calling thread a budget of units:
/// one per byte a [`LineLog`] writes and one per file it creates, cuts,
/// renames or removes. The write or change that runs out of budget is
/// cut short — a write keeps only the bytes the budget allowed — and it
/// and every later one fails with a kill error, doing nothing, so the
/// files are left exactly as a kill at that point would leave them.
#[cfg(any(test, feature = "crash-budget"))]
pub mod crash {
    use std::cell::Cell;
    use std::path::{Path, PathBuf};

    #[derive(Clone, Copy)]
    struct Budget {
        left: u64,
        /// Whether a whole write costs one unit (a killed one keeps
        /// half its bytes) instead of one per byte.
        per_call: bool,
    }

    thread_local! {
        static BUDGET: Cell<Option<Budget>> = const { Cell::new(None) };
        static SWEEPING: Cell<bool> = const { Cell::new(false) };
    }

    const KILLED: &str = "killed by the crash budget";

    /// Lets the next `units` units through on this thread.
    fn arm(units: u64) {
        set(units, false);
    }

    fn set(left: u64, per_call: bool) {
        BUDGET.with(|budget| budget.set(Some(Budget { left, per_call })));
    }

    /// Lifts the budget; returns the units left unspent, if one was
    /// armed.
    fn disarm() -> Option<u64> {
        BUDGET.with(Cell::take).map(|budget| budget.left)
    }

    /// Units `f` spends: the length of a budget sweep over it.
    fn units(f: impl FnOnce()) -> u64 {
        arm(u64::MAX);
        f();
        u64::MAX - disarm().expect("armed above")
    }

    /// Whether `error` is a simulated kill.
    fn is_kill(error: &std::io::Error) -> bool {
        error.to_string() == KILLED
    }

    /// Takes the units a write of `len` bytes (or, for `len == None`,
    /// one other change) costs; returns how many bytes may be written,
    /// or for a change 0 if it is killed.
    pub(super) fn spend(len: Option<usize>) -> usize {
        let want = len.unwrap_or(1);
        BUDGET.with(|cell| {
            let Some(mut budget) = cell.get() else {
                return want;
            };
            let granted = if budget.per_call {
                if budget.left == 0 {
                    want / 2
                } else {
                    budget.left -= 1;
                    want
                }
            } else {
                let granted = budget.left.min(want as u64);
                budget.left -= granted;
                granted as usize
            };
            cell.set(Some(budget));
            granted
        })
    }

    pub(super) fn killed() -> std::io::Error {
        std::io::Error::other(KILLED)
    }

    pub(super) fn sweeping() -> bool {
        SWEEPING.with(Cell::get)
    }

    /// Kills `session` at every unit it spends, each time starting from
    /// an empty `dir` and without fsyncs (a kill loses nothing the
    /// kernel holds). From each killed state it kills `resume` before
    /// every change it makes and in the middle of every write (the
    /// bytes of a write are swept on their own, above), resumes once
    /// more without a budget, and hands `check` that result with the
    /// model `session` built: the effects of the calls that returned
    /// `Ok`. Returns the number of kill points in the session.
    ///
    /// # Panics
    ///
    /// On an error other than a kill, and whenever `check` panics.
    pub fn sweep<M: Default, R>(
        dir: &Path,
        mut session: impl FnMut(&mut M) -> std::io::Result<()>,
        mut resume: impl FnMut() -> std::io::Result<R>,
        mut check: impl FnMut(&M, R),
    ) -> u64 {
        SWEEPING.with(|sweeping| sweeping.set(true));
        restore(dir, &[]);
        let total = units(|| session(&mut M::default()).expect("an unkilled session"));
        for budget in 0..total {
            restore(dir, &[]);
            let mut model = M::default();
            arm(budget);
            let result = session(&mut model);
            disarm();
            let error = result.expect_err("the budget kills the session");
            assert!(is_kill(&error), "{error}");
            let killed = snapshot(dir);
            set(u64::MAX, true);
            drop(resume().expect("an unkilled resume"));
            let calls = u64::MAX - disarm().expect("armed above");
            for resume_budget in 0..=calls {
                restore(dir, &killed);
                set(resume_budget, true);
                let first = resume();
                disarm();
                if let Err(error) = &first {
                    assert!(is_kill(error), "{error}");
                }
                drop(first);
                check(&model, resume().expect("a resume after a killed resume"));
            }
        }
        SWEEPING.with(|sweeping| sweeping.set(false));
        total
    }

    /// The files directly in `dir`, with their bytes.
    fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).expect("a readable directory") {
            let path = entry.expect("a directory entry").path();
            if path.is_file() {
                let bytes = std::fs::read(&path).expect("a readable file");
                files.push((path, bytes));
            }
        }
        files
    }

    /// Makes `dir` hold exactly `files`.
    fn restore(dir: &Path, files: &[(PathBuf, Vec<u8>)]) {
        std::fs::create_dir_all(dir).expect("a directory");
        for (path, _) in snapshot(dir) {
            std::fs::remove_file(path).expect("a removable file");
        }
        for (path, bytes) in files {
            std::fs::write(path, bytes).expect("a writable file");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pathmark-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read(path: &Path) -> String {
        std::fs::read_to_string(path).unwrap()
    }

    fn keep_all(line: &str) -> Option<String> {
        Some(line.to_string())
    }

    #[test]
    fn append_replace_and_resume_round_trip() {
        let dir = temp_dir("basic");
        let path = dir.join("log.jsonl");
        let mut log = LineLog::create(&path, ["a"]).unwrap();
        log.append("b").unwrap();
        assert_eq!(read(&path), "a\nb\n");
        assert_eq!(log.size(), 4);
        log.replace(["x", "y", "z"]).unwrap();
        log.append("w").unwrap();
        assert_eq!(read(&path), "x\ny\nz\nw\n");
        assert!(!tmp_path(&path).exists());
        drop(log);
        let (log, lines) = LineLog::resume(&path, keep_all).unwrap();
        assert_eq!(lines, ["x", "y", "z", "w"]);
        assert_eq!(log.size(), 8);
        log.rename(&dir.join("moved.jsonl")).unwrap();
        assert!(!path.exists());
        assert_eq!(read(&dir.join("moved.jsonl")), "x\ny\nz\nw\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_cuts_at_the_first_unterminated_or_unparsable_line() {
        let dir = temp_dir("cut");
        let path = dir.join("log.jsonl");
        let digits = |line: &str| line.parse::<u32>().ok();
        for (text, want, kept) in [
            ("1\n2\n3", vec![1, 2], "1\n2\n"),
            ("1\n2\n3\n", vec![1, 2, 3], "1\n2\n3\n"),
            ("1\nx\n3\n", vec![1], "1\n"),
            ("1\n\n3\n", vec![1], "1\n"),
            ("", vec![], ""),
            ("4", vec![], ""),
        ] {
            std::fs::write(&path, text).unwrap();
            std::fs::write(tmp_path(&path), "stale").unwrap();
            let (mut log, lines) = LineLog::resume(&path, digits).unwrap();
            assert_eq!(lines, want, "{text:?}");
            assert_eq!(read(&path), kept, "{text:?}");
            assert!(!tmp_path(&path).exists(), "the stale tmp file is removed");
            log.append("9").unwrap();
            assert_eq!(read(&path), format!("{kept}9\n"));
        }
        // Bytes that are not UTF-8 end the kept prefix too.
        std::fs::write(&path, b"1\n\xff\n3\n").unwrap();
        let (_, lines) = LineLog::resume(&path, digits).unwrap();
        assert_eq!(lines, [1]);
        // A missing log resumes empty.
        let (log, lines) = LineLog::resume(dir.join("new.jsonl"), digits).unwrap();
        assert!(lines.is_empty() && log.size() == 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The scripted session of the crash test. After each operation
    /// returns `Ok`, `done` holds the lines the log must keep.
    fn script(path: &Path, done: &mut Vec<String>) -> std::io::Result<()> {
        let set = |done: &mut Vec<String>, lines: &[&str]| {
            *done = lines.iter().map(|l| l.to_string()).collect();
        };
        let mut log = LineLog::create(path, ["head"])?;
        set(done, &["head"]);
        log.append("one")?;
        set(done, &["head", "one"]);
        log.append("two")?;
        set(done, &["head", "one", "two"]);
        log.replace(["kept", "two"])?;
        set(done, &["kept", "two"]);
        log.append("three")?;
        set(done, &["kept", "two", "three"]);
        drop(log);
        let (mut log, lines) = LineLog::resume(path, keep_all)?;
        assert_eq!(&lines, done, "a clean resume keeps everything");
        log.append("four")?;
        set(done, &["kept", "two", "three", "four"]);
        log.replace(["last"])?;
        set(done, &["last"]);
        log.append("five")?;
        set(done, &["last", "five"]);
        Ok(())
    }

    #[test]
    fn crash_line_log_survives_a_kill_at_every_byte() {
        let dir = temp_dir("crash");
        let path = dir.join("log.jsonl");
        let kills = crash::sweep(
            &dir,
            |done: &mut Vec<String>| script(&path, done),
            || LineLog::resume(&path, keep_all),
            |done, (mut log, lines)| {
                assert_eq!(
                    &lines, done,
                    "every line that returned Ok survives, nothing else"
                );
                assert!(!tmp_path(&path).exists());
                log.append("after").unwrap();
                let mut want: String = done.iter().map(|l| format!("{l}\n")).collect();
                want.push_str("after\n");
                assert_eq!(read(&path), want, "appends resume on a line boundary");
            },
        );
        assert!(kills > 40, "the sweep covers the whole script: {kills}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
