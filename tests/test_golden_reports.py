"""Report bytes pinned by SHA-256.

Each command writes a report from a small fixed input, with relative paths
so that the configuration echoed in the report is fixed too.  The digests
were recorded before the column-wise validator and the hand-written
distance matrix writer went in, and the ``build`` runs with escaped ids, a
one-point line and 3-D lattices before the array-built builders and the
hand-written ``build`` writer went in, and the ``extremal`` runs before the
grid was streamed in blocks, so a change to ingest, a builder, the grid or a
writer that alters a single byte fails here.
"""

import contextlib
import hashlib
import io
import json

from netpolar.cli import main

NETWORK = {
    "nodes": [{"id": "a", "mass": 1.5}, {"id": "b", "mass": 0.0}, {"id": "c", "mass": 2},
              {"id": "d", "mass": 0.1}, {"id": "e", "mass": 3.25}, {"id": "f", "mass": 1e-3}],
    "edges": [{"u": "a", "v": "b", "w": 0.1}, {"u": "c", "v": "b", "w": 0.2},
              {"u": "c", "v": "d", "w": 0}, {"u": "d", "v": "e", "w": 1.0 / 3.0},
              {"u": "e", "v": "a", "w": 2.5}, {"u": "f", "v": "e", "w": 7},
              {"u": "b", "v": "e", "w": 0.7}],
}
SPLIT = {  # two components, read under the longest-path convention
    "nodes": [{"id": "p", "mass": 1.0}, {"id": "q", "mass": 2.0}, {"id": "r", "mass": 0.5}],
    "edges": [{"u": "p", "v": "q", "w": 1.75}],
}
INPUTS = {
    "net.json": json.dumps(NETWORK),
    "split.json": json.dumps(SPLIT),
    "votes.csv": "voter,party,b1,b2,b3,b4\n"
                 "s1,L,1,1,0,0\ns2,L,1,0,0,0\ns3,R,0,0,1,1\ns4,R,0,1,1,1\ns5,C,1,0,1,0\n",
    "prefs.csv": "ranking,count\na>b>c>d,3\nb>a>c>d,2\nd>c>b>a,4\nc>d>a>b,1.5\n",
    "line.csv": "x,mass\n0,1\n2.5,0.5\n1,2\n7,1\n",
    "plane.csv": "0,0,1\n3,4,2\n-1,2,0.5\n2,-2,1\n",
    # ids that JSON must escape: non-ASCII (one outside the BMP), a quote, a backslash
    "escapes.csv": 'voter,party,b1,b2,b3\n'
                   '"Zoë ""Q"" Ng",Grün,1,0,1\nback\\slash,Grün,1,0,0\n'
                   '日本,"Ré""d 🙂",0,0,1\ncafé,"Ré""d 🙂",1,0,1\n"𝄞\\""x","Ré""d 🙂",1,1,1\n',
    "point.csv": "4.5,2\n",
    # near-equilateral: at alpha = 0.5 the grid holds a witness
    "triangle.json": json.dumps({
        "nodes": [{"id": "x", "mass": 1}, {"id": "y", "mass": 1}, {"id": "z", "mass": 1}],
        "edges": [{"u": "x", "v": "y", "w": 1}, {"u": "x", "v": "z", "w": 1},
                  {"u": "y", "v": "z", "w": 1.001}],
    }),
    "space.csv": "0.1,0.2,0.3,1\n1.7,-2.3,0.05,2\n3.14159,2.71828,-1.41421,0.5\n"
                 "-0.333,0.667,9.99,1\n1e-3,7.25,-0.6,0\n",
}
RUNS = {
    "distances-json": ["distances", "--network", "net.json"],
    "distances-csv": ["distances", "--network", "net.json", "--format", "csv"],
    "distances-split": ["distances", "--network", "split.json", "--allow-disconnected-longest-path"],
    "compute-normalize": ["compute", "--network", "net.json", "--normalize"],
    "compute-alpha": ["compute", "--network", "net.json", "--alpha", "1.3", "--K", "2"],
    "build-votes": ["build", "votes", "--input", "votes.csv"],
    "build-reps": ["build", "reps", "--input", "votes.csv"],
    "build-parties": ["build", "parties", "--input", "votes.csv"],
    "build-cosponsor": ["build", "cosponsor", "--input", "votes.csv"],
    "build-prefs": ["build", "prefs", "--input", "prefs.csv"],
    "build-line": ["build", "line", "--input", "line.csv"],
    "build-complete": ["build", "complete", "--input", "line.csv"],
    "build-lattice": ["build", "lattice", "--input", "plane.csv", "--norm", "euclidean"],
    "build-reps-escapes": ["build", "reps", "--input", "escapes.csv"],
    "build-cosponsor-escapes": ["build", "cosponsor", "--input", "escapes.csv"],
    "build-parties-escapes": ["build", "parties", "--input", "escapes.csv"],
    "build-line-one-point": ["build", "line", "--input", "point.csv"],
    "build-lattice-3d-euclidean": ["build", "lattice", "--input", "space.csv", "--norm", "euclidean"],
    "build-lattice-3d-manhattan": ["build", "lattice", "--input", "space.csv"],
    "build-lattice-3d-chebyshev": ["build", "lattice", "--input", "space.csv", "--norm", "chebyshev"],
    "extremal-zero-weight": ["extremal", "--network", "net.json", "--step", "0.03333333333333333"],
    "extremal-witness": ["extremal", "--network", "triangle.json", "--alpha", "0.5",
                         "--step", "0.015625"],
}
GOLDEN = {
    "distances-json": "3a8c711b41944de1922fe88e7c690af9489f0cd5554763679308fb27a03e6921",
    "distances-csv": "f753f34236115dea997eb0815b6e1fa5f3936efb2ce013858561d292f3bbc8ee",
    "distances-split": "b44fae554e8aa056484b5d9b5352952e3ef3f826c949d9554754c888249ff704",
    "compute-normalize": "060f216f1806cfe8692439662018fbf8bfcc8d6f9682f374eccfd2702ba64c29",
    "compute-alpha": "c5fa56620179b591f4f9c9e65021cb608cf874ed774dc84906c458a09f6a8489",
    "build-votes": "501f146a85e013d7e827be51d95468452e468d5d09d62ac2398d2d496f006d07",
    "build-reps": "93266e9305443bc9559f75aa63a9b84c4ab92354c6d172a5853f9f4b0c3ad469",
    "build-parties": "e196ef2f95876a742a1a717705f4b4b717f274d1fb9fdb6f4091e191d5695bae",
    "build-cosponsor": "810f4d628a8ec0092da597814ba65ced965f3e17a8b51f14d0e912fc606aa84b",
    "build-prefs": "28a2a2ae31d0f335cf570f738afd64bb509446e8465affc3cf6d179f103bb4be",
    "build-line": "a17ea5d5a62fc59163ed13515a31edcf051650d32495be2f1687a237d25be87b",
    "build-complete": "9359036387ffb5f37c80f59fbb930714d379961bb5c76bd576cbebde22d6e571",
    "build-lattice": "d538d0bc403f53cc32c9ac45b4ce41dfb16fa544d703ef019a850e363436fed0",
    "build-reps-escapes": "f11326444c72d0c10e6cbc3542db4defcddd5f78381779750bab687c7c807167",
    "build-cosponsor-escapes": "486937c342b09c7e656c94f1bb2dfd3b5c2ca199c8b5690cd5e224d64d2fff3a",
    "build-parties-escapes": "cfee0112124785f8a87ebab6e83a67f18c6d38ff209b655cfd51335a941235f8",
    "build-line-one-point": "b024ce3f90990e7b13f72bd0e15aba2439bb2e9c9e1f242b6641dafba160ce78",
    "build-lattice-3d-euclidean": "54ea66ba4751bacddc7dd6faa5797269be210c934cdd267ac65ad9b10fcd23a5",
    "build-lattice-3d-manhattan": "63b35d8ba78d38cbfc97f42f52263dfd5aebf246572eb118f0ea78d269ee6b59",
    "build-lattice-3d-chebyshev": "5d1dc7e27c32c6734ae34f3fb6ee70f0bbe6d87f5f2bae42e7b9356d7e4539a3",
    "extremal-zero-weight": "9a0a1f83c114ec125baf0c70eb207a6d7f2d41aace2ca0f13b653103dfee9124",
    "extremal-witness": "14c96f96834f017dcee8bbb6f6028f5643d184e6f3a7b8aabf1b167adfb69226",
}


def report_digests(workdir) -> dict[str, str]:
    for name, text in INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    digests = {}
    for name, argv in RUNS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--out", f"{name}.out"]) == 0
        digests[name] = hashlib.sha256((workdir / f"{name}.out").read_bytes()).hexdigest()
    return digests


def test_report_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert report_digests(tmp_path) == GOLDEN
