int main(void)
{
    int x, y;
    y = x + 1;
    y = 2;
    return y;
}
