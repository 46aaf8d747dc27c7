"""Byte-for-byte pins on every artifact the CLI writes.

The sha256 of each file written by ``mealclust generate`` and three
``mealclust run`` calls on the 40-day test profile is fixed below, so a
change to a writer, a sweep or a fit that alters any output byte fails
here. The raw run reads the generated trace plus three malformed rows,
so ``rejections.csv`` is covered too; the z-scored run generates its
trace in memory and sweeps an eps grid suited to z-scored features; the
duration run reads the same trace with one feature column, which pins
the one-dimensional fits.
"""

import hashlib

from mealclust.cli import main
from mealclust.synth import default_profile, format_profile

MALFORMED_ROWS = (
    "2024-01-05T08:00:00,house-1,s1,motion,kitchen\n"
    "1999-01-05T08:00:00,house-1,s1,motion,kitchen,1\n"
    "2024-01-05T08:00:00,house-1,s1,motion,kitchen,2\n"
)

GOLDEN = {
    "duration/house-1/categories.csv": "7fc80f2130770106684aa76ae5a4527cbcf4192b3b7bfee620d05ed97e0ee73e",
    "duration/house-1/dbscan_dbi.csv": "82145c940c57739fd598224e6aca10b1bbb7d041d4e93bbcb759d03b26eee063",
    "duration/house-1/episodes.csv": "634b9550c45352fc0c5e356b3d04be0dcaf6b9c2537d855f85b2916ab3cf43e3",
    "duration/house-1/gmm_dbi.csv": "f15cead9eed63ce41e5ebe4c6198842f94769f2d7d9f5332565f843434d12053",
    "duration/house-1/kmeans_dbi.csv": "837852e96d46b466257a12a4886889eb409c6c840080c78a7656833d68fa0ba0",
    "duration/house-1/summary.json": "5e43861b4b0975e2c9a88767ae686857e4b9ae7dd62ab5bfbe8f4659bf9053e5",
    "duration/house-1/sweep_dbscan.json": "488aa05ee4d4190138eeb019aa3b2bfdef46e3f3cbecfb03ffa42e47887896e4",
    "duration/house-1/sweep_gmm.json": "fa47d48d51292a6085d57d1300dca3168491b0de6c8453d90a41eb1baefaddfe",
    "duration/house-1/sweep_kmeans.json": "6938b4ed7577c2a59a484b1d81d9156fb99336cd13d117bc702dc8ce3d3859f4",
    "duration/rejections.csv": "ae25b6421e48412d062f8c99e427b01ddca871e7fbb41752997f7790b725cc68",
    "generate/planted.csv": "8835b5d3b99ff7b59530a21e77d4c143736d48c46a62e48f9ef43000b9f5a6d2",
    "generate/trace.csv": "ce739dea9857947af8e60b216e3e72c2a529295b039468134e0883418413896e",
    "raw/house-1/categories.csv": "7f4c049bbc8cb9a14de1ae7bc870d90547270449273438ce848153383c499700",
    "raw/house-1/dbscan_dbi.csv": "031e963b50e29a1fcc799374f0956f2cf8d2c88d6f912b22df4bb26c9c5875f1",
    "raw/house-1/episodes.csv": "634b9550c45352fc0c5e356b3d04be0dcaf6b9c2537d855f85b2916ab3cf43e3",
    "raw/house-1/gmm_dbi.csv": "8ad8ad3756fb8934f4a9515e5c8e685027f298f127102c02bfdd7c88da99de1a",
    "raw/house-1/kmeans_dbi.csv": "8f93a92073ea9a990fae88ffd21ac212cd4024ddb8e546b7dd7b0c444705f5db",
    "raw/house-1/summary.json": "4cd917f39bce6d9b432a962f5e7449bdceebb6f41de1052f7052a92f66a2c332",
    "raw/house-1/sweep_dbscan.json": "925593460302acc3b697a4c862b8bc2775fb20f64a59cb7933856ca22ccc3916",
    "raw/house-1/sweep_gmm.json": "e9ad17644463a2e6610d43c73b70576b0369afdd106a9d0241004dcdb6fa2b6f",
    "raw/house-1/sweep_kmeans.json": "7c735ad7b065dde9c96b3f43bd1dfd389f82725bb6be7d53cf88ef1a9105771d",
    "raw/rejections.csv": "ae25b6421e48412d062f8c99e427b01ddca871e7fbb41752997f7790b725cc68",
    "zscore/house-1/categories.csv": "55c7e6757373ad00c0e51ae571a250458ea8e092e8b946559f35291879106c9c",
    "zscore/house-1/dbscan_dbi.csv": "b0c5938e31ad02e8a7e2aa94261f66e45b7cc46acb408b64fa5bb89f0e20a97f",
    "zscore/house-1/episodes.csv": "634b9550c45352fc0c5e356b3d04be0dcaf6b9c2537d855f85b2916ab3cf43e3",
    "zscore/house-1/gmm_dbi.csv": "5f697c4a406729e9ad19f7504dad1b90114cc2e8cf4770e8573cd62f44d50eb1",
    "zscore/house-1/kmeans_dbi.csv": "ad583caf08715b986cef8685410f99377b715d2f3b31200958effe659384645e",
    "zscore/house-1/summary.json": "67551bb06595d8fb82fb9eb698b6d3751ecf8bed5dcc92a2d3f7ee769e292eb6",
    "zscore/house-1/sweep_dbscan.json": "696891513f0202ed01772a74dc12bfe1eed32facea572235ae8c0ece0d742c81",
    "zscore/house-1/sweep_gmm.json": "6bf472b5a3a87f0bf3f9138c13f56751f004da91a2ad139ef21b10e46d20c626",
    "zscore/house-1/sweep_kmeans.json": "194e935637f0fdc8a3b9baa06a4f42e4ffb8ad5f7a385df617a5f39f71a402ee",
}


def sha256_tree(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def write_artifacts(tmp_path):
    """Run the four CLI calls; return the root holding their outputs."""
    profile = tmp_path / "profile.txt"
    profile.write_text(format_profile(default_profile(days=40, seed=21)))
    root = tmp_path / "artifacts"
    assert main(["generate", "--profile", str(profile), "--out", str(root / "generate")]) == 0
    trace = tmp_path / "trace_with_bad_rows.csv"
    trace.write_text((root / "generate" / "trace.csv").read_text() + MALFORMED_ROWS)
    assert main(["run", "--input", str(trace), "--seed", "3", "--out", str(root / "raw")]) == 0
    assert main([
        "run", "--input", str(trace), "--features", "duration", "--seed", "3", "--out", str(root / "duration"),
    ]) == 0
    assert main([
        "run", "--synth-profile", str(profile), "--scale", "zscore",
        "--eps", "0.1,0.2,0.3,0.5,0.8", "--seed", "3", "--out", str(root / "zscore"),
    ]) == 0
    return root


def test_artifacts_are_byte_identical(tmp_path):
    assert sha256_tree(write_artifacts(tmp_path)) == GOLDEN
