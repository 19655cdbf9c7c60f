package repro.matrix

/** The "no-copy" backend: from-scratch kernels over the columnar layout.
  *
  * Analog of RMA+BAT in the paper — algorithms are expressed as vectorised
  * column operations directly on the columnar data (see [[Kernels]]), no
  * conversion to an external dense format is performed.
  */
object ColumnarBackend extends MatrixBackend {
  val name = "columnar"

  def add(a: ColMatrix, b: ColMatrix): ColMatrix = Kernels.add(a, b)
  def sub(a: ColMatrix, b: ColMatrix): ColMatrix = Kernels.sub(a, b)
  def emu(a: ColMatrix, b: ColMatrix): ColMatrix = Kernels.emu(a, b)
  def mmu(a: ColMatrix, b: ColMatrix): ColMatrix = Kernels.mmu(a, b)
  def tra(a: ColMatrix): ColMatrix = Kernels.tra(a)
  def cpd(a: ColMatrix, b: ColMatrix): ColMatrix = Kernels.cpd(a, b)
  def opd(a: ColMatrix, b: ColMatrix): ColMatrix = Kernels.opd(a, b)
  def inv(a: ColMatrix): ColMatrix = Kernels.inv(a)
  def det(a: ColMatrix): Double = Kernels.det(a)
  def rnk(a: ColMatrix): Int = Kernels.rank(a)
  def chf(a: ColMatrix): ColMatrix = Kernels.chol(a)
  def qr(a: ColMatrix): (ColMatrix, ColMatrix) = Kernels.qr(a)
  def svd(a: ColMatrix): (ColMatrix, Array[Double], ColMatrix) = Kernels.svd(a)
  def eig(a: ColMatrix): (Array[Double], ColMatrix) = Kernels.eigSym(a)
  def sol(a: ColMatrix, b: ColMatrix): ColMatrix = Kernels.solve(a, b)
}
