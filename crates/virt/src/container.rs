//! A Docker-analogue container runtime over the kernel model.
//!
//! Containers virtualize the OS interface: the workload runs natively,
//! but startup must materialize the image (union of layers → rootfs),
//! create namespaces and set up cgroup accounting. The paper measures a
//! ≈30 MB / ≈0.5 s base overhead for Docker; this model reproduces the
//! *mechanism* (real file copies and bookkeeping) so the crossover shape
//! of Fig. 8 emerges from measured work rather than constants.

use vkernel::{Kernel, Tid};

/// One image layer: a set of files to union into the rootfs.
#[derive(Clone, Debug)]
pub struct Layer {
    /// Layer name (diagnostics).
    pub name: String,
    /// `(path, content)` pairs the layer contributes.
    pub files: Vec<(String, Vec<u8>)>,
}

impl Layer {
    /// Generates a synthetic layer of `n` files of `size` bytes each
    /// (bulk of a distro base image).
    pub fn synthetic(name: &str, n: usize, size: usize) -> Layer {
        Layer {
            name: name.to_string(),
            files: (0..n)
                .map(|i| (format!("/usr/lib/{name}/file{i}.so"), vec![i as u8; size]))
                .collect(),
        }
    }

    /// Total bytes in this layer.
    pub fn bytes(&self) -> usize {
        self.files.iter().map(|(_, c)| c.len()).sum()
    }
}

/// An image: ordered layers, later layers overriding earlier ones.
#[derive(Clone, Debug, Default)]
pub struct Image {
    /// The layer stack.
    pub layers: Vec<Layer>,
}

impl Image {
    /// A small busybox-style base image (docker-library shapes: a base
    /// layer, a libs layer, an app layer).
    pub fn typical() -> Image {
        Image {
            layers: vec![
                Layer::synthetic("base", 160, 4096),
                Layer::synthetic("libs", 120, 8192),
                Layer::synthetic("app", 40, 2048),
            ],
        }
    }

    /// Total image bytes.
    pub fn bytes(&self) -> usize {
        self.layers.iter().map(Layer::bytes).sum()
    }
}

/// Namespace + cgroup bookkeeping created per container.
#[derive(Clone, Debug, Default)]
pub struct Namespaces {
    /// Mount table entries created for the union rootfs.
    pub mounts: Vec<String>,
    /// cgroup accounting slabs (memory.current, cpu.stat …).
    pub cgroup_slabs: Vec<Vec<u8>>,
}

/// A started container.
pub struct Container {
    /// Task running the workload.
    pub tid: Tid,
    /// Rootfs prefix inside the shared VFS.
    pub rootfs: String,
    /// Namespace bookkeeping.
    pub namespaces: Namespaces,
    /// Bytes materialized at startup.
    pub startup_bytes: usize,
    /// Files materialized at startup.
    pub startup_files: usize,
}

impl Container {
    /// Starts a container: materializes the image into the kernel's VFS
    /// under a unique rootfs, sets up namespaces and spawns the workload
    /// task. This is the measured "docker run" startup path.
    pub fn start(k: &mut Kernel, image: &Image, name: &str) -> Container {
        let rootfs = format!("/var/lib/containers/{name}/rootfs");
        let mut startup_bytes = 0;
        let mut startup_files = 0;
        // Union the layers: copy every file through the VFS (overlayfs
        // materialization).
        for layer in &image.layers {
            for (path, content) in &layer.files {
                let dst = format!("{rootfs}{path}");
                if let Some(dir) = dst.rfind('/') {
                    let _ = k.vfs.mkdir_p(&dst[..dir]);
                }
                let _ = k.vfs.write_file(&dst, content);
                startup_bytes += content.len();
                startup_files += 1;
            }
        }
        // Namespace setup: proc, sys, dev bind mounts plus the id-map.
        let namespaces = Namespaces {
            mounts: ["proc", "sys", "dev", "etc/resolv.conf", "etc/hostname"]
                .iter()
                .map(|m| format!("{rootfs}/{m}"))
                .collect(),
            // cgroup v2 accounting structures (memory, cpu, io, pids).
            cgroup_slabs: (0..4).map(|_| vec![0u8; 64 * 1024]).collect(),
        };
        let tid = k.spawn_process();
        Container {
            tid,
            rootfs,
            namespaces,
            startup_bytes,
            startup_files,
        }
    }

    /// Approximate base memory overhead of the container runtime for this
    /// instance (layer pages + bookkeeping), in bytes.
    pub fn base_memory(&self) -> usize {
        self.startup_bytes
            + self
                .namespaces
                .cgroup_slabs
                .iter()
                .map(Vec::len)
                .sum::<usize>()
            + self.namespaces.mounts.len() * 4096
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startup_materializes_all_layers() {
        let mut k = Kernel::new();
        let image = Image::typical();
        let c = Container::start(&mut k, &image, "t1");
        assert_eq!(c.startup_bytes, image.bytes());
        assert_eq!(c.startup_files, 320);
        // The files are really in the VFS.
        let probe = format!("{}/usr/lib/base/file0.so", c.rootfs);
        assert!(k.vfs.read_file(&probe).is_ok());
        assert!(c.base_memory() > image.bytes());
    }

    #[test]
    fn containers_are_isolated_by_rootfs() {
        let mut k = Kernel::new();
        let image = Image {
            layers: vec![Layer::synthetic("base", 2, 64)],
        };
        let a = Container::start(&mut k, &image, "a");
        let b = Container::start(&mut k, &image, "b");
        assert_ne!(a.rootfs, b.rootfs);
        assert_ne!(a.tid, b.tid);
    }

    #[test]
    fn startup_cost_scales_with_image_size() {
        let mut k = Kernel::new();
        let small = Image {
            layers: vec![Layer::synthetic("s", 10, 1024)],
        };
        let large = Image {
            layers: vec![Layer::synthetic("l", 100, 1024)],
        };
        // The work a start does, not one wall-clock read of it: two
        // single-shot timings of ~10 µs operations order either way.
        let s = Container::start(&mut k, &small, "s");
        let l = Container::start(&mut k, &large, "l");
        assert_eq!((s.startup_files, l.startup_files), (10, 100));
        assert_eq!(s.startup_bytes, small.bytes());
        assert_eq!(l.startup_bytes, large.bytes());
        assert_eq!(l.startup_bytes, 10 * s.startup_bytes);
    }
}
