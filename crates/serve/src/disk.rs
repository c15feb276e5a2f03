//! The one seam between the durable path and the file system: the WAL,
//! the snapshots, the directory bookkeeping and `recover` reach files
//! only through a [`Disk`]. The product's one implementation is
//! [`RealDisk`]; tests substitute a simulated disk (`sim`).

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// A file [`Disk::create`] opened for writing.
pub(crate) trait DiskFile: Write + Send {
    /// Makes every byte written so far durable (`fdatasync`).
    fn sync_data(&mut self) -> std::io::Result<()>;
}

/// Every file-system call of the durable path.
pub(crate) trait Disk: Send + Sync {
    /// Creates `dir` and its missing parents.
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()>;
    /// The names in `dir` that are UTF-8.
    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>>;
    /// Creates `path` for writing, truncating whatever it held.
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn DiskFile>>;
    /// Opens `path` for reading.
    fn open(&self, path: &Path) -> std::io::Result<Box<dyn Read>>;
    /// Makes the bytes of the file at `path` durable, whoever wrote them.
    fn sync_file(&self, path: &Path) -> std::io::Result<()>;
    /// Renames `from` to `to`, replacing `to`.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Deletes the file at `path`.
    fn remove(&self, path: &Path) -> std::io::Result<()>;
    /// Fsyncs `dir` itself: the names created, renamed or removed in it
    /// become durable.
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;
}

/// The operating system's file system.
pub(crate) struct RealDisk;

impl DiskFile for File {
    fn sync_data(&mut self) -> std::io::Result<()> {
        File::sync_data(self)
    }
}

impl Disk for RealDisk {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        let names = std::fs::read_dir(dir)?.map(|e| Ok(e?.file_name().into_string().ok()));
        names.filter_map(Result::transpose).collect()
    }

    fn create(&self, path: &Path) -> std::io::Result<Box<dyn DiskFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open(&self, path: &Path) -> std::io::Result<Box<dyn Read>> {
        Ok(Box::new(BufReader::new(File::open(path)?)))
    }

    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        // Opened for writing: fsync through a read-only handle is not
        // portable.
        OpenOptions::new().write(true).open(path)?.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        // Some filesystems refuse directory handles; a failed fsync is an
        // error (its handling is held by `service.rs`'s `SimDisk` steps).
        File::open(dir).map_or(Ok(()), |handle| handle.sync_all())
    }
}

#[cfg(test)]
pub(crate) mod sim {
    //! An in-memory [`Disk`] for crash tests. It numbers every operation,
    //! keeps each file's written bytes apart from its fsynced ones, and
    //! keeps the live names apart from those a directory fsync made
    //! durable. One planned fault strikes the `n`-th operation (of one
    //! kind, or of any): [`Fault::Kill`] ends the process there,
    //! [`Fault::Fail`] makes that one operation return `Err`.
    //! [`SimDisk::lose_power`] then yields what survives a power cut, and
    //! [`SimDisk::probe_kill`] reads a test's probe at the instant of the
    //! kill.

    use std::collections::BTreeMap;
    use std::io::{Cursor, Read, Write};
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    use super::{Disk, DiskFile};

    /// The kinds of operation the simulated disk numbers.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Op {
        CreateDir,
        List,
        Create,
        Open,
        Write,
        SyncData,
        SyncFile,
        Rename,
        Remove,
        SyncDir,
    }

    /// What the planned fault does.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Fault {
        /// The process dies at this operation: it and every later one
        /// report success and change nothing, except that a killed write
        /// lands its first half (a torn write). What was written before
        /// stays, as in the page cache.
        Kill,
        /// This one operation returns `Err` and changes nothing; every
        /// other operation goes through.
        Fail,
    }

    /// One numbered operation: its kind and the file or directory it
    /// touched (a write or fsync names the file its handle was created
    /// as).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct Step {
        pub(crate) op: Op,
        pub(crate) path: PathBuf,
    }

    #[derive(Clone, Default)]
    struct Inode {
        written: Vec<u8>,
        synced: Vec<u8>,
    }

    /// What a test reads when the planned kill strikes.
    type Probe = Arc<dyn Fn() -> usize + Send + Sync>;

    #[derive(Clone, Default)]
    struct State {
        steps: Vec<Step>,
        /// The fault, the operation kind it counts (`None`: every kind)
        /// and how many of those to let through first.
        plan: Option<(Fault, Option<Op>, usize)>,
        killed: bool,
        probe: Option<Probe>,
        /// The probe's reading at the kill.
        probed: Option<usize>,
        inodes: Vec<Inode>,
        live: BTreeMap<PathBuf, usize>,
        durable: BTreeMap<PathBuf, usize>,
    }

    /// What one operation does under the plan.
    enum Verdict {
        Apply,
        /// The process is dead; `true` for the operation that killed it.
        Vanish(bool),
    }

    impl State {
        fn step(&mut self, op: Op, path: &Path) -> std::io::Result<Verdict> {
            self.steps.push(Step {
                op,
                path: path.to_path_buf(),
            });
            if self.killed {
                return Ok(Verdict::Vanish(false));
            }
            if let Some((fault, kind, left)) = &mut self.plan {
                if kind.is_none_or(|kind| kind == op) {
                    if *left > 0 {
                        *left -= 1;
                    } else {
                        let fault = *fault;
                        self.plan = None;
                        if fault == Fault::Kill {
                            self.killed = true;
                            self.probed = self.probe.as_ref().map(|probe| probe());
                            return Ok(Verdict::Vanish(true));
                        }
                        let step = self.steps.len() - 1;
                        return Err(std::io::Error::other(format!(
                            "simulated failure of {op:?} at step {step}"
                        )));
                    }
                }
            }
            Ok(Verdict::Apply)
        }

        fn inode(&self, path: &Path) -> std::io::Result<usize> {
            self.live
                .get(path)
                .copied()
                .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::NotFound))
        }
    }

    /// The simulated disk; clones share one state.
    #[derive(Clone, Default)]
    pub(crate) struct SimDisk(Arc<Mutex<State>>);

    struct SimFile {
        disk: SimDisk,
        inode: usize,
        path: PathBuf,
    }

    impl SimDisk {
        /// A disk whose `n`-th operation of `kind` (of any kind when
        /// `None`), counted from 0, suffers `fault`.
        pub(crate) fn planned(fault: Fault, kind: Option<Op>, n: usize) -> Self {
            let disk = SimDisk::default();
            disk.lock().plan = Some((fault, kind, n));
            disk
        }

        fn lock(&self) -> MutexGuard<'_, State> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// A second disk holding a copy of this one's state.
        pub(crate) fn fork(&self) -> Self {
            SimDisk(Arc::new(Mutex::new(self.lock().clone())))
        }

        /// Every operation so far, in order.
        pub(crate) fn steps(&self) -> Vec<Step> {
            self.lock().steps.clone()
        }

        /// Reads `probe` when the planned kill strikes, before the killing
        /// operation does anything; [`SimDisk::probed`] returns the
        /// reading. The probe runs under the disk's lock, so it must not
        /// wait on anything that waits on the disk.
        pub(crate) fn probe_kill(&self, probe: impl Fn() -> usize + Send + Sync + 'static) {
            self.lock().probe = Some(Arc::new(probe));
        }

        /// The probe's reading at the planned kill, if the kill struck
        /// after [`SimDisk::probe_kill`].
        pub(crate) fn probed(&self) -> Option<usize> {
            self.lock().probed
        }

        /// Kills the process now: every later operation vanishes.
        pub(crate) fn kill(&self) {
            self.lock().killed = true;
        }

        /// The process restarts on the same machine: the page cache, and
        /// with it every written byte and live name, survives.
        pub(crate) fn restart(&self) {
            let mut state = self.lock();
            state.killed = false;
            state.plan = None;
        }

        /// The machine loses power and restarts: a file keeps only its
        /// fsynced bytes, and only names a directory fsync made durable
        /// exist (a removal that was never made durable is undone).
        pub(crate) fn lose_power(&self) {
            let mut state = self.lock();
            for inode in &mut state.inodes {
                inode.written.clone_from(&inode.synced);
            }
            state.live = state.durable.clone();
            state.killed = false;
            state.plan = None;
        }

        /// The live names and their written bytes.
        pub(crate) fn files(&self) -> BTreeMap<PathBuf, Vec<u8>> {
            let state = self.lock();
            state
                .live
                .iter()
                .map(|(path, &inode)| (path.clone(), state.inodes[inode].written.clone()))
                .collect()
        }
    }

    impl Write for SimFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut state = self.disk.lock();
            let land = match state.step(Op::Write, &self.path)? {
                Verdict::Apply => buf.len(),
                Verdict::Vanish(killed_here) => usize::from(killed_here) * buf.len() / 2,
            };
            state.inodes[self.inode]
                .written
                .extend_from_slice(&buf[..land]);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl DiskFile for SimFile {
        fn sync_data(&mut self) -> std::io::Result<()> {
            let mut state = self.disk.lock();
            if let Verdict::Apply = state.step(Op::SyncData, &self.path)? {
                let inode = &mut state.inodes[self.inode];
                inode.synced.clone_from(&inode.written);
            }
            Ok(())
        }
    }

    impl Disk for SimDisk {
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.lock().step(Op::CreateDir, dir).map(drop)
        }

        fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
            let mut state = self.lock();
            state.step(Op::List, dir)?;
            Ok(state
                .live
                .keys()
                .filter(|path| path.parent() == Some(dir))
                .filter_map(|path| Some(path.file_name()?.to_str()?.to_owned()))
                .collect())
        }

        fn create(&self, path: &Path) -> std::io::Result<Box<dyn DiskFile>> {
            let mut state = self.lock();
            let apply = matches!(state.step(Op::Create, path)?, Verdict::Apply);
            state.inodes.push(Inode::default());
            let inode = state.inodes.len() - 1;
            if apply {
                state.live.insert(path.to_path_buf(), inode);
            }
            Ok(Box::new(SimFile {
                disk: self.clone(),
                inode,
                path: path.to_path_buf(),
            }))
        }

        fn open(&self, path: &Path) -> std::io::Result<Box<dyn Read>> {
            let mut state = self.lock();
            state.step(Op::Open, path)?;
            let inode = state.inode(path)?;
            Ok(Box::new(Cursor::new(state.inodes[inode].written.clone())))
        }

        fn sync_file(&self, path: &Path) -> std::io::Result<()> {
            let mut state = self.lock();
            if let Verdict::Apply = state.step(Op::SyncFile, path)? {
                let inode = state.inode(path)?;
                let inode = &mut state.inodes[inode];
                inode.synced.clone_from(&inode.written);
            }
            Ok(())
        }

        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            let mut state = self.lock();
            if let Verdict::Apply = state.step(Op::Rename, from)? {
                let inode = state.inode(from)?;
                state.live.remove(from);
                state.live.insert(to.to_path_buf(), inode);
            }
            Ok(())
        }

        fn remove(&self, path: &Path) -> std::io::Result<()> {
            let mut state = self.lock();
            if let Verdict::Apply = state.step(Op::Remove, path)? {
                state.inode(path)?;
                state.live.remove(path);
            }
            Ok(())
        }

        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            let mut state = self.lock();
            if let Verdict::Apply = state.step(Op::SyncDir, dir)? {
                let in_dir = |path: &PathBuf| path.parent() == Some(dir);
                state.durable.retain(|path, _| !in_dir(path));
                let live: Vec<(PathBuf, usize)> = state
                    .live
                    .iter()
                    .filter(|(path, _)| in_dir(path))
                    .map(|(path, &inode)| (path.clone(), inode))
                    .collect();
                state.durable.extend(live);
            }
            Ok(())
        }
    }
}
